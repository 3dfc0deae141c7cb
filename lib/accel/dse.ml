type result = {
  config : Config.t;
  umm_latency : float;
  resources : Fpga.Resource.t;
}

let candidate_tiles () =
  List.concat_map
    (fun tm ->
      List.concat_map
        (fun tn ->
          List.map (fun sp -> Tiling.make ~tm ~tn ~th:sp ~tw:sp) [ 7; 14; 28; 56 ])
        [ 16; 32; 64 ])
    [ 16; 32; 64 ]

let run ?(device = Fpga.Device.vu9p) ~style dtype g =
  let tiles = Array.of_list (candidate_tiles ()) in
  let table = Latency.table dtype ~fused_eltwise:false g in
  (* A node's compute time depends only on the PE array (one per DSP
     fraction) and its streaming time only on the tile, so each is swept
     once and every candidate is a fold over the two.  A tile is swept the
     first time one of its candidates fits. *)
  let streaming = Array.make (Array.length tiles) None in
  let streaming_of i cfg =
    match streaming.(i) with
    | Some s -> s
    | None ->
      let s = Latency.streaming_times cfg table in
      streaming.(i) <- Some s;
      s
  in
  (* Large parts close timing with the full 83 % DSP budget; smaller parts
     (or LUT-hungry precisions) need a smaller array, so the sweep also
     descends the DSP-budget ladder. *)
  let evaluate_fraction dsp_fraction =
    let base = Config.make ~device ~dsp_fraction ~style dtype in
    let compute = lazy (Latency.compute_times base table) in
    List.init (Array.length tiles) (fun i ->
        let cfg = { base with Config.tile = tiles.(i) } in
        let resources = Config.compute_resources cfg in
        if not (Fpga.Resource.fits resources ~within:device.Fpga.Device.total)
        then None
        else
          let umm_latency =
            Latency.umm_total_of_times ~compute:(Lazy.force compute)
              ~streaming:(streaming_of i cfg)
          in
          Some { config = cfg; umm_latency; resources })
    |> List.filter_map Fun.id
  in
  let better a b =
    if a.umm_latency < b.umm_latency then a
    else if b.umm_latency < a.umm_latency then b
    else if
      Tiling.buffer_bytes dtype a.config.Config.tile
      <= Tiling.buffer_bytes dtype b.config.Config.tile
    then a
    else b
  in
  match List.concat_map evaluate_fraction [ 0.83; 0.6; 0.4; 0.25; 0.12 ] with
  | [] -> invalid_arg "Dse.run: no tile configuration fits the device"
  | first :: rest -> List.fold_left better first rest
