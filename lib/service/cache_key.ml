module F = Lcmm.Framework

let options_fingerprint (o : F.options) =
  String.concat "|"
    ([ "fr:" ^ string_of_bool o.F.feature_reuse;
      "wp:" ^ string_of_bool o.F.weight_prefetch;
      "bs:" ^ string_of_bool o.F.buffer_splitting;
      "sh:" ^ string_of_bool o.F.buffer_sharing;
      "mb:" ^ string_of_bool o.F.memory_bound_only;
      ("comp:"
      ^ match o.F.compensation with
        | Lcmm.Dnnk.Table_approx -> "table"
        | Lcmm.Dnnk.Exact_iterative -> "exact");
      ("col:"
      ^ match o.F.coloring with
        | Lcmm.Coloring.Min_growth -> "min_growth"
        | Lcmm.Coloring.First_fit -> "first_fit");
      ("cap:"
      ^ match o.F.capacity_override with
        | None -> "none"
        | Some b -> string_of_int b);
      "slices:" ^ string_of_int o.F.weight_slices;
      "fusion:" ^ string_of_bool o.F.fusion ]
     (* Folded only off-default so every pre-channel cache key — and
        persisted disk cache entry — keeps its digest. *)
     @ (if o.F.channels = 1 then [] else [ "ch:" ^ string_of_int o.F.channels ]))

let hash parts =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

let request_digest ?(extra = []) ~dtype ~device ~options g =
  hash
    (Dnn_serial.Codec.to_string ~pretty:false g
    :: Tensor.Dtype.to_string dtype
    :: device.Fpga.Device.device_name
    :: options_fingerprint options :: extra)

let run_digest ?(extra = []) ~dtype ~device ~options tenants =
  hash
    (Tensor.Dtype.to_string dtype
     :: device.Fpga.Device.device_name
     :: options_fingerprint options
     :: extra
    @ List.concat_map
        (fun (g, tag) -> [ tag; Dnn_serial.Codec.to_string ~pretty:false g ])
        tenants)
