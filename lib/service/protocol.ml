module Json = Dnn_serial.Json
module F = Lcmm.Framework

type target =
  | Named of string
  | Inline of Dnn_graph.Graph.t

type compile_spec = {
  target : target;
  dtype : Tensor.Dtype.t;
  device : Fpga.Device.t;
  options : F.options;
}

type run_tenant = {
  tenant_target : target;
  count : int;
  tenant_priority : int;
  arrival_s : float;
}

type run_spec = {
  tenants : run_tenant list;
  run_dtype : Tensor.Dtype.t;
  run_device : Fpga.Device.t;
  arbitration : Lcmm_runtime.Arbiter.t;
  scheduler : Lcmm_runtime.Scheduler.t;
  sram_partition : Lcmm_runtime.Partition.policy;
  overcommit : float;
  run_channels : int;
      (* DDR channels the runtime engine schedules over; 1 = the
         aggregate fluid-bus model (and the pre-channel digest). *)
  run_options : F.options;
  faults : Fault.Spec.t option;
}

type request =
  | Compile of compile_spec
  | Simulate of compile_spec * int option
  | Run of run_spec
  | Batch of envelope list
  | Stats
  | Models
  | Cache_get of string
  | Cache_put of string * Json.t

and envelope = {
  id : Json.t option;
  deadline_ms : float option;
  checksum : bool;
      (* request end-to-end integrity: the engine adds a "sum" digest of
         the result payload to the response.  Set by the tier router on
         forwarded requests so corrupted shard replies are detectable;
         defaults to false, leaving direct clients byte-identical. *)
  request : request;
}

let target_name = function
  | Named name -> name
  | Inline _ -> "<inline>"

let op_name = function
  | Compile _ -> "compile"
  | Simulate _ -> "simulate"
  | Run _ -> "run"
  | Batch _ -> "batch"
  | Stats -> "stats"
  | Models -> "models"
  | Cache_get _ -> "cache_get"
  | Cache_put _ -> "cache_put"

let ( let* ) = Result.bind

(* --- decoding --- *)

let bool_field v key fallback =
  match Json.member_opt key v with
  | None -> Ok fallback
  | Some field -> (
    match Json.to_bool field with
    | Ok b -> Ok b
    | Error _ -> Error (Printf.sprintf "field %S: expected a boolean" key))

(* DDR channels: at least one and at most the device's DDR banks.  A
   count past the banks has no bank to stripe over, while the runtime's
   work and its report grow with it. *)
let channels_field v ~device fallback =
  match Json.member_opt "channels" v with
  | None -> Ok fallback
  | Some field -> (
    let banks = Fpga.Device.ddr_channels device in
    match Json.to_int field with
    | Ok c when c >= 1 && c <= banks -> Ok c
    | Ok _ ->
      Error
        (Printf.sprintf "field \"channels\": expected a count from 1 to %d (%s)"
           banks device.Fpga.Device.device_name)
    | Error _ -> Error "field \"channels\": expected an integer")

let options_of_json ~device v =
  let base = F.default_options in
  let* feature_reuse = bool_field v "feature_reuse" base.F.feature_reuse in
  let* weight_prefetch = bool_field v "weight_prefetch" base.F.weight_prefetch in
  let* buffer_splitting = bool_field v "buffer_splitting" base.F.buffer_splitting in
  let* buffer_sharing = bool_field v "buffer_sharing" base.F.buffer_sharing in
  let* memory_bound_only = bool_field v "memory_bound_only" base.F.memory_bound_only in
  let* compensation =
    match Json.member_opt "compensation" v with
    | None -> Ok base.F.compensation
    | Some (Json.String ("table" | "table_approx")) -> Ok Lcmm.Dnnk.Table_approx
    | Some (Json.String ("exact" | "exact_iterative")) -> Ok Lcmm.Dnnk.Exact_iterative
    | Some _ -> Error "field \"compensation\": expected \"table\" or \"exact\""
  in
  let* coloring =
    match Json.member_opt "coloring" v with
    | None -> Ok base.F.coloring
    | Some (Json.String "min_growth") -> Ok Lcmm.Coloring.Min_growth
    | Some (Json.String "first_fit") -> Ok Lcmm.Coloring.First_fit
    | Some _ -> Error "field \"coloring\": expected \"min_growth\" or \"first_fit\""
  in
  let* capacity_override =
    match Json.member_opt "capacity_override" v with
    | None -> Ok base.F.capacity_override
    | Some Json.Null -> Ok None
    | Some field -> (
      match Json.to_int field with
      | Ok b when b > 0 -> Ok (Some b)
      | Ok _ -> Error "field \"capacity_override\": expected a positive byte count"
      | Error _ -> Error "field \"capacity_override\": expected an integer or null")
  in
  let* weight_slices =
    match Json.member_opt "weight_slices" v with
    | None -> Ok base.F.weight_slices
    | Some field -> (
      match Json.to_int field with
      | Ok k when k >= 1 -> Ok k
      | Ok _ -> Error "field \"weight_slices\": expected a count >= 1"
      | Error _ -> Error "field \"weight_slices\": expected an integer")
  in
  let* fusion = bool_field v "fusion" base.F.fusion in
  let* channels = channels_field v ~device base.F.channels in
  Ok
    { F.feature_reuse;
      weight_prefetch;
      buffer_splitting;
      buffer_sharing;
      memory_bound_only;
      compensation;
      coloring;
      capacity_override;
      weight_slices;
      fusion;
      channels }

let target_of_json v =
  match Json.member_opt "model" v, Json.member_opt "graph" v with
  | Some _, Some _ -> Error "give either \"model\" or \"graph\", not both"
  | None, None -> Error "missing target: give \"model\" or \"graph\""
  | Some name_v, None ->
    let* name = Json.to_str name_v in
    Ok (Named name)
  | None, Some graph_v ->
    let* g = Dnn_serial.Codec.graph_of_json graph_v in
    Ok (Inline g)

let dtype_of_json v =
  match Json.member_opt "dtype" v with
  | None -> Ok Tensor.Dtype.I16
  | Some field ->
    let* s = Json.to_str field in
    (match Tensor.Dtype.of_string s with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "unknown dtype %S" s))

let device_of_json v =
  match Json.member_opt "device" v with
  | None -> Ok Fpga.Device.vu9p
  | Some field ->
    let* s = Json.to_str field in
    (match Fpga.Device.find s with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "unknown device %S" s))

let fw_options_of_json ~device v =
  match Json.member_opt "options" v with
  | None -> Ok F.default_options
  | Some (Json.Obj _ as o) -> options_of_json ~device o
  | Some _ -> Error "field \"options\": expected an object"

let compile_spec_of_json v =
  let* target = target_of_json v in
  let* dtype = dtype_of_json v in
  let* device = device_of_json v in
  let* options = fw_options_of_json ~device v in
  Ok { target; dtype; device; options }

(* A policy knob: an optional string field decoded through a module's
   [of_string]. *)
let policy_field v key of_string fallback ~known =
  match Json.member_opt key v with
  | None -> Ok fallback
  | Some field -> (
    match Json.to_str field with
    | Error _ -> Error (Printf.sprintf "field %S: expected a string" key)
    | Ok s -> (
      match of_string s with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "field %S: unknown value %S (known: %s)" key s known)))

let run_tenant_of_json v =
  let* tenant_target = target_of_json v in
  let* count =
    match Json.member_opt "count" v with
    | None -> Ok 1
    | Some field -> (
      match Json.to_int field with
      | Ok n when n >= 1 -> Ok n
      | Ok _ -> Error "field \"count\": expected a count >= 1"
      | Error _ -> Error "field \"count\": expected an integer")
  in
  let* tenant_priority =
    match Json.member_opt "priority" v with
    | None -> Ok 0
    | Some field -> (
      match Json.to_int field with
      | Ok p -> Ok p
      | Error _ -> Error "field \"priority\": expected an integer")
  in
  (* [arrival_s] (seconds, verbatim) wins over [arrival_ms] when both
     are present: re-encoded requests carry the seconds field so the
     value — and thus the run digest — survives an encode/decode
     round-trip exactly, without a ms->s division. *)
  let* arrival_s =
    match Json.member_opt "arrival_s" v with
    | Some field -> (
      match Json.to_float field with
      | Ok s when s >= 0. -> Ok s
      | Ok _ -> Error "field \"arrival_s\": expected a non-negative number"
      | Error _ -> Error "field \"arrival_s\": expected a number")
    | None -> (
      match Json.member_opt "arrival_ms" v with
      | None -> Ok 0.
      | Some field -> (
        match Json.to_float field with
        | Ok ms when ms >= 0. -> Ok (ms /. 1e3)
        | Ok _ -> Error "field \"arrival_ms\": expected a non-negative number"
        | Error _ -> Error "field \"arrival_ms\": expected a number"))
  in
  Ok { tenant_target; count; tenant_priority; arrival_s }

let run_spec_of_json v =
  let* tenants_v = Json.member "tenants" v in
  let* items = Json.to_list tenants_v in
  let* () = if items = [] then Error "field \"tenants\": expected a non-empty list" else Ok () in
  let* tenants =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* tenant = run_tenant_of_json item in
        Ok (tenant :: acc))
      (Ok []) items
  in
  let tenants = List.rev tenants in
  let* run_dtype = dtype_of_json v in
  let* run_device = device_of_json v in
  let* run_options = fw_options_of_json ~device:run_device v in
  let* arbitration =
    policy_field v "arbitration" Lcmm_runtime.Arbiter.of_string
      Lcmm_runtime.Arbiter.Fair_share ~known:"fair priority"
  in
  let* scheduler =
    policy_field v "scheduler" Lcmm_runtime.Scheduler.of_string
      Lcmm_runtime.Scheduler.Edf ~known:"greedy edf optimized"
  in
  let* sram_partition =
    policy_field v "partition" Lcmm_runtime.Partition.of_string
      Lcmm_runtime.Partition.Equal ~known:"equal demand"
  in
  let* overcommit =
    match Json.member_opt "overcommit" v with
    | None -> Ok 4.0
    | Some field -> (
      match Json.to_float field with
      | Ok x when x > 0. -> Ok x
      | Ok _ -> Error "field \"overcommit\": expected a positive number"
      | Error _ -> Error "field \"overcommit\": expected a number")
  in
  (* A spec with no active fault source is normalised to [None] here so
     the run digests — and thus the cache — of "no faults" and
     "faults that do nothing" coincide. *)
  let* faults =
    match Json.member_opt "faults" v with
    | None -> Ok None
    | Some field -> (
      match Json.to_str field with
      | Error _ -> Error "field \"faults\": expected a fault-spec string"
      | Ok s -> (
        match Fault.Spec.of_string s with
        | Ok spec ->
          (* Transport clauses are tier-level: a run op keeps only board
             faults, so transport-only specs normalise to the no-fault
             path (and the no-fault digest). *)
          Ok (if Fault.Spec.has_board_faults spec then Some spec else None)
        | Error msg -> Error (Printf.sprintf "field \"faults\": %s" msg)))
  in
  let* run_channels = channels_field v ~device:run_device 1 in
  Ok
    { tenants; run_dtype; run_device; arbitration; scheduler; sram_partition;
      overcommit; run_channels; run_options; faults }

(* Digests name plan-cache entries (and, persisted, files): only the hex
   strings we mint are accepted, so nothing else ever reaches a lookup
   path. *)
let digest_of_json v =
  let* field = Json.member "digest" v in
  match Json.to_str field with
  | Error _ -> Error "field \"digest\": expected a string"
  | Ok s ->
    if s <> "" && String.length s <= 128
       && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
    then Ok s
    else Error "field \"digest\": expected a lowercase hex digest"

let rec request_of_json v =
  let* op_v = Json.member "op" v in
  let* op = Json.to_str op_v in
  let id = Json.member_opt "id" v in
  let* deadline_ms =
    match Json.member_opt "deadline_ms" v with
    | None -> Ok None
    | Some field -> (
      match Json.to_float field with
      | Ok ms when ms > 0. -> Ok (Some ms)
      | Ok _ -> Error "field \"deadline_ms\": expected a positive number"
      | Error _ -> Error "field \"deadline_ms\": expected a number")
  in
  let* checksum =
    match Json.member_opt "checksum" v with
    | None -> Ok false
    | Some (Json.Bool b) -> Ok b
    | Some _ -> Error "field \"checksum\": expected a boolean"
  in
  let* request =
    match op with
    | "compile" ->
      let* spec = compile_spec_of_json v in
      Ok (Compile spec)
    | "simulate" ->
      let* spec = compile_spec_of_json v in
      let* images =
        match Json.member_opt "images" v with
        | None -> Ok None
        | Some field -> (
          match Json.to_int field with
          | Ok n when n >= 1 -> Ok (Some n)
          | Ok _ -> Error "field \"images\": expected a count >= 1"
          | Error _ -> Error "field \"images\": expected an integer")
      in
      Ok (Simulate (spec, images))
    | "run" ->
      let* spec = run_spec_of_json v in
      Ok (Run spec)
    | "batch" ->
      let* requests_v = Json.member "requests" v in
      let* items = Json.to_list requests_v in
      let* subs =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* sub = request_of_json item in
            match sub.request with
            | Batch _ -> Error "nested batch requests are not supported"
            | Compile _ | Simulate _ | Run _ | Stats | Models | Cache_get _
            | Cache_put _ ->
              Ok (sub :: acc))
          (Ok []) items
      in
      Ok (Batch (List.rev subs))
    | "stats" -> Ok Stats
    | "models" -> Ok Models
    | "cache_get" ->
      let* digest = digest_of_json v in
      Ok (Cache_get digest)
    | "cache_put" ->
      let* digest = digest_of_json v in
      let* payload = Json.member "payload" v in
      Ok (Cache_put (digest, payload))
    | other ->
      Error
        (Printf.sprintf
           "unknown op %S (known: compile simulate run batch stats models \
            cache_get cache_put)"
           other)
  in
  Ok { id; deadline_ms; checksum; request }

let request_of_line line =
  let* v = Json.of_string line in
  request_of_json v

(* --- encoding (forwarding, transcripts, debugging) --- *)

let options_to_json (o : F.options) =
  Json.Obj
    ([ ("feature_reuse", Json.Bool o.F.feature_reuse);
      ("weight_prefetch", Json.Bool o.F.weight_prefetch);
      ("buffer_splitting", Json.Bool o.F.buffer_splitting);
      ("buffer_sharing", Json.Bool o.F.buffer_sharing);
      ("memory_bound_only", Json.Bool o.F.memory_bound_only);
      ( "compensation",
        Json.String
          (match o.F.compensation with
          | Lcmm.Dnnk.Table_approx -> "table"
          | Lcmm.Dnnk.Exact_iterative -> "exact") );
      ( "coloring",
        Json.String
          (match o.F.coloring with
          | Lcmm.Coloring.Min_growth -> "min_growth"
          | Lcmm.Coloring.First_fit -> "first_fit") );
      ( "capacity_override",
        match o.F.capacity_override with
        | None -> Json.Null
        | Some b -> Json.Int b );
      ("weight_slices", Json.Int o.F.weight_slices);
      ("fusion", Json.Bool o.F.fusion) ]
    (* Emitted only off-default so pre-channel encodings round-trip
       byte-identically. *)
    @ (if o.F.channels = 1 then [] else [ ("channels", Json.Int o.F.channels) ]))

(* The inverse of [request_of_line], used by the tier router to forward
   a parsed envelope to a backend shard.  The encoding must round-trip
   *exactly* — [request_of_line (to_string (envelope_to_json env))]
   yields an envelope with the same cache digest — or a shard would file
   the plan under a different key than the router probes for.  That is
   why tenant arrivals are emitted as the verbatim-seconds [arrival_s]
   field rather than re-derived milliseconds. *)

let target_fields = function
  | Named name -> [ ("model", Json.String name) ]
  | Inline g -> [ ("graph", Dnn_serial.Codec.graph_to_json g) ]

let compile_spec_fields (spec : compile_spec) =
  target_fields spec.target
  @ [ ("dtype", Json.String (Tensor.Dtype.to_string spec.dtype));
      ("device", Json.String spec.device.Fpga.Device.device_name);
      ("options", options_to_json spec.options) ]

let run_tenant_to_json (tn : run_tenant) =
  Json.Obj
    (target_fields tn.tenant_target
    @ [ ("count", Json.Int tn.count);
        ("priority", Json.Int tn.tenant_priority);
        ("arrival_s", Json.Float tn.arrival_s) ])

let run_spec_fields (spec : run_spec) =
  [ ("tenants", Json.List (List.map run_tenant_to_json spec.tenants));
    ("dtype", Json.String (Tensor.Dtype.to_string spec.run_dtype));
    ("device", Json.String spec.run_device.Fpga.Device.device_name);
    ("options", options_to_json spec.run_options);
    ("arbitration", Json.String (Lcmm_runtime.Arbiter.to_string spec.arbitration));
    ("scheduler", Json.String (Lcmm_runtime.Scheduler.to_string spec.scheduler));
    ("partition", Json.String (Lcmm_runtime.Partition.to_string spec.sram_partition));
    ("overcommit", Json.Float spec.overcommit) ]
  @ (if spec.run_channels = 1 then []
     else [ ("channels", Json.Int spec.run_channels) ])
  @
  match spec.faults with
  | None -> []
  | Some f -> [ ("faults", Json.String (Fault.Spec.to_string f)) ]

let rec envelope_to_json (env : envelope) =
  let body =
    match env.request with
    | Compile spec -> compile_spec_fields spec
    | Simulate (spec, images) ->
      compile_spec_fields spec
      @ (match images with None -> [] | Some n -> [ ("images", Json.Int n) ])
    | Run spec -> run_spec_fields spec
    | Batch subs ->
      [ ("requests", Json.List (List.map envelope_to_json subs)) ]
    | Stats | Models -> []
    | Cache_get digest -> [ ("digest", Json.String digest) ]
    | Cache_put (digest, payload) ->
      [ ("digest", Json.String digest); ("payload", payload) ]
  in
  Json.Obj
    (( ("op", Json.String (op_name env.request))
     :: (match env.id with None -> [] | Some id -> [ ("id", id) ]) )
    @ (match env.deadline_ms with
      | None -> []
      | Some ms -> [ ("deadline_ms", Json.Float ms) ])
    @ (if env.checksum then [ ("checksum", Json.Bool true) ] else [])
    @ body)
