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

(* --- wire fields ---

   Each field of a request body is declared once, in one of the tables
   below, and its decoding, encoding and cache-key text all derive from
   that declaration.  A table decodes by folding over a seed record that
   holds the defaults, so an absent field keeps its default. *)

(* How one value travels: decoded from a present JSON value (the field
   name goes into every error text), encoded back, and spelled into a
   cache key.  [None] from [to_json] or [to_key] leaves the field out. *)
type 'a codec = {
  of_json : string -> Json.t -> ('a, string) result;
  to_json : 'a -> Json.t option;
  to_key : 'a -> string option;
}

(* One field of a record ['r]: [decode] reads it from a request object
   into the record decoded so far, given the table's context (the
   request's device, which bounds a channel count). *)
type ('c, 'r) field = {
  decode : 'c -> Json.t -> 'r -> ('r, string) result;
  encode : 'r -> (string * Json.t) option;
  key : 'r -> string option;
}

let field_error name msg = Error (Printf.sprintf "field %S: %s" name msg)

let expected name what = field_error name ("expected " ^ what)

(* [key] prefixes the cache-key text; [within] checks a decoded value
   against the context. *)
let field ?(within = fun _ x -> Ok x) name ~key codec ~get ~set =
  { decode =
      (fun c v r ->
        match Json.member_opt name v with
        | None -> Ok r
        | Some j -> (
          let* x = codec.of_json name j in
          match within c x with
          | Ok x -> Ok (set r x)
          | Error msg -> field_error name msg));
    encode = (fun r -> Option.map (fun j -> (name, j)) (codec.to_json (get r)));
    key = (fun r -> Option.map (( ^ ) key) (codec.to_key (get r))) }

let decode_fields fields c v seed =
  List.fold_left (fun acc f -> let* r = acc in f.decode c v r) (Ok seed) fields

let encode_fields fields r = List.filter_map (fun f -> f.encode r) fields

let key_fields fields r = List.filter_map (fun f -> f.key r) fields

(* A number read by [parse] that must satisfy [valid]: [what] names the
   JSON type expected, [range] the values accepted. *)
let number parse ~what ~valid ~range name j =
  match parse j with
  | Error _ -> expected name what
  | Ok x -> if valid x then Ok x else expected name range

let ints ~valid ~range =
  { of_json = number Json.to_int ~what:"an integer" ~valid ~range;
    to_json = (fun n -> Some (Json.Int n));
    to_key = (fun n -> Some (string_of_int n)) }

let floats ~valid ~range =
  { of_json = number Json.to_float ~what:"a number" ~valid ~range;
    to_json = (fun x -> Some (Json.Float x));
    to_key = (fun x -> Some (Printf.sprintf "%.17g" x)) }

let any_int = ints ~valid:(fun _ -> true) ~range:""

let count = ints ~valid:(fun n -> n >= 1) ~range:"a count >= 1"

let positive = floats ~valid:(fun x -> x > 0.) ~range:"a positive number"

let non_negative =
  floats ~valid:(fun x -> x >= 0.) ~range:"a non-negative number"

let bool =
  { of_json =
      (fun name j ->
        match Json.to_bool j with
        | Ok b -> Ok b
        | Error _ -> expected name "a boolean");
    to_json = (fun b -> Some (Json.Bool b));
    to_key = (fun b -> Some (string_of_bool b)) }

(* A closed set of names: each case is the name a value encodes to, the
   value, and further names accepted for it. *)
let enum cases =
  let name_of x =
    let name, _, _ = List.find (fun (_, y, _) -> y = x) cases in
    name
  in
  let accepts s (name, _, aliases) = s = name || List.mem s aliases in
  { of_json =
      (fun name j ->
        let case =
          match j with
          | Json.String s -> List.find_opt (accepts s) cases
          | _ -> None
        in
        match case with
        | Some (_, x, _) -> Ok x
        | None ->
          expected name
            (String.concat " or "
               (List.map (fun (n, _, _) -> Printf.sprintf "%S" n) cases)));
    to_json = (fun x -> Some (Json.String (name_of x)));
    to_key = (fun x -> Some (name_of x)) }

(* A runtime policy, decoded by its module's [of_string]. *)
let policy ~all ~to_string ~of_string =
  { of_json =
      (fun name j ->
        match Json.to_str j with
        | Error _ -> expected name "a string"
        | Ok s -> (
          match of_string s with
          | Some p -> Ok p
          | None ->
            field_error name
              (Printf.sprintf "unknown value %S (known: %s)" s
                 (String.concat " " (List.map to_string all)))));
    to_json = (fun p -> Some (Json.String (to_string p)));
    to_key = (fun p -> Some (to_string p)) }

(* DDR channels, bounded by the device's banks.  One channel is the
   aggregate bus model and is left out of encodings and keys, so every
   request that predates channels keeps its bytes and its digest. *)
let channels =
  { any_int with
    to_json = (fun c -> if c = 1 then None else any_int.to_json c);
    to_key = (fun c -> if c = 1 then None else any_int.to_key c) }

let options_table : (Fpga.Device.t, F.options) field list =
  let flag name ~key ~get ~set = field name ~key bool ~get ~set in
  [ flag "feature_reuse" ~key:"fr:" ~get:(fun o -> o.F.feature_reuse)
      ~set:(fun o feature_reuse -> { o with F.feature_reuse });
    flag "weight_prefetch" ~key:"wp:" ~get:(fun o -> o.F.weight_prefetch)
      ~set:(fun o weight_prefetch -> { o with F.weight_prefetch });
    flag "buffer_splitting" ~key:"bs:" ~get:(fun o -> o.F.buffer_splitting)
      ~set:(fun o buffer_splitting -> { o with F.buffer_splitting });
    flag "buffer_sharing" ~key:"sh:" ~get:(fun o -> o.F.buffer_sharing)
      ~set:(fun o buffer_sharing -> { o with F.buffer_sharing });
    flag "memory_bound_only" ~key:"mb:" ~get:(fun o -> o.F.memory_bound_only)
      ~set:(fun o memory_bound_only -> { o with F.memory_bound_only });
    field "compensation" ~key:"comp:"
      (enum
         [ ("table", Lcmm.Dnnk.Table_approx, [ "table_approx" ]);
           ("exact", Lcmm.Dnnk.Exact_iterative, [ "exact_iterative" ]) ])
      ~get:(fun o -> o.F.compensation)
      ~set:(fun o compensation -> { o with F.compensation });
    field "coloring" ~key:"col:"
      (enum
         [ ("min_growth", Lcmm.Coloring.Min_growth, []);
           ("first_fit", Lcmm.Coloring.First_fit, []) ])
      ~get:(fun o -> o.F.coloring)
      ~set:(fun o coloring -> { o with F.coloring });
    field "capacity_override" ~key:"cap:"
      { of_json =
          (fun name -> function
            | Json.Null -> Ok None
            | j ->
              Result.map Option.some
                (number Json.to_int ~what:"an integer or null"
                   ~valid:(fun b -> b > 0) ~range:"a positive byte count" name j));
        to_json =
          (fun c -> Some (Option.fold ~none:Json.Null ~some:(fun b -> Json.Int b) c));
        to_key = (fun c -> Some (Option.fold ~none:"none" ~some:string_of_int c)) }
      ~get:(fun o -> o.F.capacity_override)
      ~set:(fun o capacity_override -> { o with F.capacity_override });
    field "weight_slices" ~key:"slices:" count ~get:(fun o -> o.F.weight_slices)
      ~set:(fun o weight_slices -> { o with F.weight_slices });
    flag "fusion" ~key:"fusion:" ~get:(fun o -> o.F.fusion)
      ~set:(fun o fusion -> { o with F.fusion });
    field "channels" ~key:"ch:" channels ~within:Fpga.Device.check_channels
      ~get:(fun o -> o.F.channels)
      ~set:(fun o channels -> { o with F.channels }) ]

(* [arrival_s] (seconds, verbatim) wins over [arrival_ms] when both are
   present, and is the one encoded: the value, and so the run digest,
   survives an encode/decode round-trip exactly, with no ms->s
   division. *)
let arrival =
  let get tn = tn.arrival_s in
  let seconds =
    field "arrival_s" ~key:"arr:" non_negative ~get
      ~set:(fun tn arrival_s -> { tn with arrival_s })
  in
  let millis =
    field "arrival_ms" ~key:"arr:" non_negative ~get
      ~set:(fun tn ms -> { tn with arrival_s = ms /. 1e3 })
  in
  { seconds with
    decode =
      (fun c v tn ->
        match Json.member_opt "arrival_s" v with
        | Some _ -> seconds.decode c v tn
        | None -> millis.decode c v tn) }

let tenant_table : (unit, run_tenant) field list =
  [ field "count" ~key:"count:" count ~get:(fun tn -> tn.count)
      ~set:(fun tn count -> { tn with count });
    field "priority" ~key:"prio:" any_int ~get:(fun tn -> tn.tenant_priority)
      ~set:(fun tn tenant_priority -> { tn with tenant_priority });
    arrival ]

let run_table : (Fpga.Device.t, run_spec) field list =
  let module R = Lcmm_runtime in
  [ field "arbitration" ~key:""
      (policy ~all:R.Arbiter.all ~to_string:R.Arbiter.to_string
         ~of_string:R.Arbiter.of_string)
      ~get:(fun s -> s.arbitration)
      ~set:(fun s arbitration -> { s with arbitration });
    field "scheduler" ~key:""
      (policy ~all:R.Scheduler.all ~to_string:R.Scheduler.to_string
         ~of_string:R.Scheduler.of_string)
      ~get:(fun s -> s.scheduler)
      ~set:(fun s scheduler -> { s with scheduler });
    field "partition" ~key:""
      (policy ~all:R.Partition.all ~to_string:R.Partition.to_string
         ~of_string:R.Partition.of_string)
      ~get:(fun s -> s.sram_partition)
      ~set:(fun s sram_partition -> { s with sram_partition });
    field "overcommit" ~key:"" positive ~get:(fun s -> s.overcommit)
      ~set:(fun s overcommit -> { s with overcommit });
    field "channels" ~key:"channels:" channels
      ~within:Fpga.Device.check_channels
      ~get:(fun s -> s.run_channels)
      ~set:(fun s run_channels -> { s with run_channels });
    (* A spec with no board fault source (all quiet, or transport
       clauses only, which are tier-level) is normalised to [None], so
       its run digest, and so the cache, is the fault-free one. *)
    field "faults" ~key:"faults:"
      { of_json =
          (fun name j ->
            match Json.to_str j with
            | Error _ -> expected name "a fault-spec string"
            | Ok s -> (
              match Fault.Spec.of_string s with
              | Ok spec ->
                Ok (if Fault.Spec.has_board_faults spec then Some spec else None)
              | Error msg -> field_error name msg));
        to_json = Option.map (fun f -> Json.String (Fault.Spec.to_string f));
        to_key = Option.map Fault.Spec.to_string }
      ~get:(fun s -> s.faults)
      ~set:(fun s faults -> { s with faults }) ]

(* Simulate's batch size: absent is a single image. *)
let images_field : (unit, int option) field =
  field "images" ~key:""
    { of_json = (fun name j -> Result.map Option.some (count.of_json name j));
      to_json = Option.map (fun n -> Json.Int n);
      to_key = (fun n -> Some (Option.fold ~none:"single" ~some:string_of_int n)) }
    ~get:Fun.id ~set:(fun _ n -> n)

let options_key o = String.concat "|" (key_fields options_table o)

let tenant_key tn = String.concat "|" (key_fields tenant_table tn)

let run_key spec = key_fields run_table spec

let images_key n = String.concat "" (key_fields [ images_field ] n)

(* --- decoding --- *)

(* [f] over [items] in order, stopping at the first error. *)
let map_ok f items =
  Result.map List.rev
    (List.fold_left
       (fun acc item ->
         let* acc = acc in
         let* x = f item in
         Ok (x :: acc))
       (Ok []) items)

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

(* A field naming one of a closed set, looked up by [find]. *)
let named_of_json key ~default find v =
  match Json.member_opt key v with
  | None -> Ok default
  | Some field ->
    let* s = Json.to_str field in
    Option.to_result ~none:(Printf.sprintf "unknown %s %S" key s) (find s)

let dtype_of_json =
  named_of_json "dtype" ~default:Tensor.Dtype.I16 Tensor.Dtype.of_string

let device_of_json = named_of_json "device" ~default:Fpga.Device.vu9p Fpga.Device.find

let options_of_json ~device v =
  match Json.member_opt "options" v with
  | None -> Ok F.default_options
  | Some (Json.Obj _ as o) -> decode_fields options_table device o F.default_options
  | Some _ -> Error "field \"options\": expected an object"

let compile_spec_of_json v =
  let* target = target_of_json v in
  let* dtype = dtype_of_json v in
  let* device = device_of_json v in
  let* options = options_of_json ~device v in
  Ok { target; dtype; device; options }

let run_tenant_of_json v =
  let* tenant_target = target_of_json v in
  decode_fields tenant_table () v
    { tenant_target; count = 1; tenant_priority = 0; arrival_s = 0. }

let run_spec_of_json v =
  let* tenants_v = Json.member "tenants" v in
  let* items = Json.to_list tenants_v in
  let* () = if items = [] then Error "field \"tenants\": expected a non-empty list" else Ok () in
  let* tenants = map_ok run_tenant_of_json items in
  let* run_dtype = dtype_of_json v in
  let* run_device = device_of_json v in
  let* run_options = options_of_json ~device:run_device v in
  decode_fields run_table run_device v
    { tenants; run_dtype; run_device; run_options;
      arbitration = Lcmm_runtime.Arbiter.Fair_share;
      scheduler = Lcmm_runtime.Scheduler.Edf;
      sram_partition = Lcmm_runtime.Partition.Equal;
      overcommit = 4.0;
      run_channels = 1;
      faults = None }

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

(* An envelope field: [None] when absent. *)
let optional codec name v =
  match Json.member_opt name v with
  | None -> Ok None
  | Some j -> Result.map Option.some (codec.of_json name j)

let rec request_of_json v =
  let* op_v = Json.member "op" v in
  let* op = Json.to_str op_v in
  let id = Json.member_opt "id" v in
  let* deadline_ms = optional positive "deadline_ms" v in
  let* checksum = optional bool "checksum" v in
  let* request =
    match op with
    | "compile" ->
      let* spec = compile_spec_of_json v in
      Ok (Compile spec)
    | "simulate" ->
      let* spec = compile_spec_of_json v in
      let* images = images_field.decode () v None in
      Ok (Simulate (spec, images))
    | "run" ->
      let* spec = run_spec_of_json v in
      Ok (Run spec)
    | "batch" ->
      let* requests_v = Json.member "requests" v in
      let* items = Json.to_list requests_v in
      let* subs =
        map_ok
          (fun item ->
            let* sub = request_of_json item in
            match sub.request with
            | Batch _ -> Error "nested batch requests are not supported"
            | Compile _ | Simulate _ | Run _ | Stats | Models | Cache_get _
            | Cache_put _ ->
              Ok sub)
          items
      in
      Ok (Batch subs)
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
  Ok { id; deadline_ms; checksum = Option.value checksum ~default:false; request }

let request_of_line line =
  let* v = Json.of_string line in
  request_of_json v

(* --- encoding (forwarding, transcripts, debugging) --- *)

let options_to_json o = Json.Obj (encode_fields options_table o)

(* The inverse of [request_of_line], used by the tier router to forward
   a parsed envelope to a backend shard.  The encoding must round-trip
   *exactly* — [request_of_line (to_string (envelope_to_json env))]
   yields an envelope with the same cache digest — or a shard would file
   the plan under a different key than the router probes for. *)

let target_fields = function
  | Named name -> [ ("model", Json.String name) ]
  | Inline g -> [ ("graph", Dnn_serial.Codec.graph_to_json g) ]

let design_fields dtype device options =
  [ ("dtype", Json.String (Tensor.Dtype.to_string dtype));
    ("device", Json.String device.Fpga.Device.device_name);
    ("options", options_to_json options) ]

let compile_spec_fields (spec : compile_spec) =
  target_fields spec.target @ design_fields spec.dtype spec.device spec.options

let run_tenant_to_json (tn : run_tenant) =
  Json.Obj (target_fields tn.tenant_target @ encode_fields tenant_table tn)

let run_spec_fields (spec : run_spec) =
  ("tenants", Json.List (List.map run_tenant_to_json spec.tenants))
  :: design_fields spec.run_dtype spec.run_device spec.run_options
  @ encode_fields run_table spec

let rec envelope_to_json (env : envelope) =
  let body =
    match env.request with
    | Compile spec -> compile_spec_fields spec
    | Simulate (spec, images) ->
      compile_spec_fields spec @ Option.to_list (images_field.encode images)
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
