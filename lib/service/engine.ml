module Json = Dnn_serial.Json
module Wire = Dnn_serial.Wire
module F = Lcmm.Framework
module P = Protocol

let src = Logs.Src.create "lcmm.service" ~doc:"Plan-compilation service"

module Log = (val Logs.src_log src : Logs.LOG)

(* Per-op circuit breaker ({!Breaker}).  Consecutive service-side
   failures (internal errors, deadline misses — never client mistakes)
   trip the op open; while open, requests are shed immediately with a
   structured "unavailable" error instead of queueing onto a pool that
   keeps failing.  After the cooldown one probe is let through. *)
type t = {
  plan_cache : Plan_cache.t;
  worker_pool : Lcmm.Pool.t;
  meters : Metrics.t;
  default_deadline_ms : float option;
  breakers : (string, Breaker.t) Hashtbl.t;
  breaker_mutex : Mutex.t;
  new_breaker : unit -> Breaker.t;
  pass_clock : F.pass_times Atomic.t;
      (* Summed pass times of the plans this engine's compile/simulate
         misses computed; the stats op reports it. *)
  dse_runs : int Atomic.t;
  prepares : int Atomic.t;
  memo_hits : int Atomic.t;
      (* The stages this engine's compile/simulate misses ran
         themselves (DSE sweeps, prepares) or took from a zoo model's
         stage memo; the stats op reports them. *)
}

let create ?cache ?pool ?deadline_ms ?(breaker_threshold = 5)
    ?(breaker_cooldown_ms = 1000.) () =
  (match deadline_ms with
  | Some ms when ms <= 0. ->
    invalid_arg "Engine.create: deadline_ms must be positive"
  | _ -> ());
  let new_breaker () =
    Breaker.create ~threshold:breaker_threshold
      ~cooldown_s:(breaker_cooldown_ms /. 1e3)
  in
  (* Reject bad breaker parameters now, not on the first compute. *)
  ignore (new_breaker ());
  { plan_cache = (match cache with Some c -> c | None -> Plan_cache.create ());
    worker_pool = (match pool with Some p -> p | None -> Lcmm.Pool.create ());
    meters = Metrics.create ();
    default_deadline_ms = deadline_ms;
    breakers = Hashtbl.create 8;
    breaker_mutex = Mutex.create ();
    new_breaker;
    pass_clock = Atomic.make F.zero_pass_times;
    dse_runs = Atomic.make 0;
    prepares = Atomic.make 0;
    memo_hits = Atomic.make 0 }

(* Called under [breaker_mutex]. *)
let breaker_of t op =
  match Hashtbl.find t.breakers op with
  | b -> b
  | exception Not_found ->
    let b = t.new_breaker () in
    Hashtbl.add t.breakers op b;
    b

(* [Some msg] when the request must be shed without running.  The
   breaker calls cannot raise, so the lock needs no [Fun.protect]. *)
let breaker_admit t op =
  let now = Unix.gettimeofday () in
  Mutex.lock t.breaker_mutex;
  let b = breaker_of t op in
  let decision = Breaker.admit b ~now in
  let failures = Breaker.failures b in
  Mutex.unlock t.breaker_mutex;
  match decision with
  | Breaker.Pass | Breaker.Probe -> None
  | Breaker.Shed_open left ->
    Some
      (Printf.sprintf
         "unavailable: %s circuit open after %d consecutive failures; \
          retry in %.0f ms"
         op failures
         (Float.max 1. (left *. 1e3)))
  | Breaker.Shed_probing ->
    Some
      (Printf.sprintf "unavailable: %s circuit half-open, probe in flight" op)

(* Only service-side failures count against the breaker; a client
   mistake (unknown model, bad spec) proves the service is answering. *)
let breaker_counts msg =
  match Wire.kind msg with Some ("internal" | "deadline") -> true | _ -> false

let breaker_record t op outcome =
  let failed =
    match outcome with Ok _ -> false | Error msg -> breaker_counts msg
  in
  let now = Unix.gettimeofday () in
  Mutex.lock t.breaker_mutex;
  Breaker.record (breaker_of t op) ~now ~failed;
  Mutex.unlock t.breaker_mutex

let breakers_json t =
  Mutex.lock t.breaker_mutex;
  let entries =
    Hashtbl.fold
      (fun op b acc ->
        ( op,
          Json.Obj
            [ ( "state",
                Json.String
                  (match Breaker.state b with
                  | `Closed -> "closed"
                  | `Open -> "open"
                  | `Half_open -> "half_open") );
              ("failures", Json.Int (Breaker.failures b));
              ("trips", Json.Int (Breaker.trips b));
              ("shed", Json.Int (Breaker.shed b)) ] )
        :: acc)
      t.breakers []
  in
  Mutex.unlock t.breaker_mutex;
  Json.Obj (List.sort (fun (a, _) (b, _) -> compare a b) entries)

type cache_status = Hit | Miss | Uncached

type response = {
  id : Json.t option;
  op : string;
  cache : cache_status;
  elapsed_s : float;
  outcome : (Json.t, string) result;
  subs : response list;
  checksum : bool;
      (* The request asked for end-to-end integrity: rendering adds a
         "sum" digest of the compact result payload. *)
}

(* --- result payload encoders --- *)

let report_json (r : F.design_report) =
  Json.Obj
    [ ("style", Json.String r.F.style_name);
      ("latency_ms", Json.Float (r.F.latency_seconds *. 1e3));
      ("tops", Json.Float r.F.tops);
      ("freq_mhz", Json.Float r.F.freq_mhz);
      ("dsp_util", Json.Float r.F.dsp_util);
      ("clb_util", Json.Float r.F.clb_util);
      ("sram_util", Json.Float r.F.sram_util);
      ("bram_util", Json.Float r.F.bram_util);
      ("uram_util", Json.Float r.F.uram_util) ]

let spec_fields (spec : P.compile_spec) ~digest =
  [ ("model", Json.String (P.target_name spec.P.target));
    ("dtype", Json.String (Tensor.Dtype.to_string spec.P.dtype));
    ("device", Json.String spec.P.device.Fpga.Device.device_name);
    ("digest", Json.String digest) ]

(* A bounded memo: an immutable map in an [Atomic].  Reads take no
   lock; an insert is a compare-and-set that adds a key only while it
   is absent and the map holds fewer than [bound] keys, so racing
   inserts never lose a key and hostile keys cannot grow it. *)
module Memo (K : Map.OrderedType) = struct
  module M = Map.Make (K)

  let create () = Atomic.make M.empty

  let find memo key = M.find_opt key (Atomic.get memo)

  let rec add ~bound memo key v =
    let m = Atomic.get memo in
    if M.cardinal m < bound && not (M.mem key m) then
      if not (Atomic.compare_and_set memo m (M.add key v m)) then
        add ~bound memo key v
end

(* Everything [Cache_key.request_digest_of_canonical] hashes besides the
   graph bytes.  The digest reads only the device's name, so that is
   all the key keeps of the device. *)
type digest_key = {
  key_dtype : Tensor.Dtype.t;
  key_device : string;
  key_options : F.options;
  key_extra : string list;
}

module Digests = Memo (struct
  type t = digest_key

  let compare = compare
end)

(* What a DSE sweep reads besides the graph: the dtype and the device,
   which the protocol resolves by name. *)
type design_key = { design_dtype : Tensor.Dtype.t; design_device : string }

module Designs = Memo (struct
  type t = design_key

  let compare = compare
end)

(* What [Framework.prepare] reads besides the graph: the design point
   (fixed by the design key) and the options' prepare fields. *)
type prepare_key = { prepare_design : design_key; prepare_options : F.options }

module Prepared = Memo (struct
  type t = prepare_key

  let compare = compare
end)

(* A zoo model's memos, shared by every request for it. *)
type memos = {
  digests : string Digests.M.t Atomic.t;
  designs : F.designs Designs.M.t Atomic.t;
  prepared : (F.designs * F.prepared) Prepared.M.t Atomic.t;
}

(* A resolved target: the graph the passes read, its canonical bytes
   ({!Cache_key.canonical}), which the cache key hashes, and, for a zoo
   model, its memos. *)
type resolved = {
  graph : Dnn_graph.Graph.t;
  bytes : string;
  memos : memos option;
}

(* Keys past this many per model are hashed on every request and never
   stored, so hostile option sets cannot grow the memo.  serve-cold's
   zoo requests need 16 per model. *)
let digest_memo_bound = 64

(* Prepared stages past this many per model are rebuilt on every
   request and never stored, so hostile option sets (any
   [weight_slices]) cannot grow the memo.  serve-cold needs one per
   model, a sweep over the three dtypes three.  The largest stage is
   vgg19's at f32 sliced to the block size, 240k words (1.9 MB); one
   worst-case stage per zoo model sums to 7.0 MB, so the bound caps
   the memo at 28 MB. *)
let prepared_memo_bound = 4

(* Designs are a report and a config per key, and their keys (dtype,
   device) are finite: every dtype on every device fits. *)
let designs_memo_bound = 16

module Smap = Map.Make (String)

(* Each zoo model is built and serialized once per process, then shared
   read-only by every request, domain and thread, together with a memo
   of its request digests.  Reads take no lock; a miss builds under
   [zoo_lock] so no model is built twice. *)
let zoo_memo : resolved Smap.t Atomic.t = Atomic.make Smap.empty

let zoo_lock = Mutex.create ()

let resolve_zoo (entry : Models.Zoo.entry) =
  let name = entry.Models.Zoo.model_name in
  match Smap.find_opt name (Atomic.get zoo_memo) with
  | Some r -> r
  | None ->
    Mutex.protect zoo_lock (fun () ->
        let memo = Atomic.get zoo_memo in
        match Smap.find_opt name memo with
        | Some r -> r
        | None ->
          let graph = entry.Models.Zoo.build () in
          let r =
            { graph;
              bytes = Cache_key.canonical graph;
              memos =
                Some
                  { digests = Digests.create ();
                    designs = Designs.create ();
                    prepared = Prepared.create () } }
          in
          Atomic.set zoo_memo (Smap.add name r memo);
          r)

let resolve_target = function
  | P.Inline g -> Ok { graph = g; bytes = Cache_key.canonical g; memos = None }
  | P.Named name -> (
    match Models.Zoo.find name with
    | Some entry -> Ok (resolve_zoo entry)
    | None ->
      Error
        (Printf.sprintf "unknown model %S (known: %s)" name
           (String.concat ", "
              (List.map (fun e -> e.Models.Zoo.model_name) Models.Zoo.all))))

let resolve_graph (spec : P.compile_spec) = resolve_target spec.P.target

let fusion_fields = function
  | None -> []
  | Some fz ->
    let module Fz = Lcmm_fusion.Fusion in
    [ ( "fusion",
        Json.Obj
          [ ("segments", Json.Int (List.length fz.Fz.segments));
            ("fused_nodes", Json.Int (Fz.fused_nodes fz));
            ("streamed_weights", Json.Int (List.length fz.Fz.streamed));
            ("fifo_bytes", Json.Int fz.Fz.fifo_bytes);
            ("ddr_bytes_saved", Json.Int (Fz.ddr_bytes_saved fz));
            ("peak_sram_bytes", Json.Int fz.Fz.plan.F.tensor_sram_bytes);
            ("latency_ms", Json.Float (fz.Fz.predicted_latency *. 1e3)) ] ) ]

let rec charge_pass_times t times =
  let cur = Atomic.get t.pass_clock in
  if not (Atomic.compare_and_set t.pass_clock cur (F.add_pass_times cur times))
  then charge_pass_times t times

(* The DSE's designs and the prepared LCMM stage a compile of [r] plans
   from, and whether the prepared stage came from the model's memo.  A
   zoo model keeps both per key, so a request that changes only options
   [prepare] does not read (capacity, fusion, channels, ...) reruns
   neither.  Every stage is pure ([Framework]'s staging contract), so a
   memoized one is the one a fresh run would build.

   A prepared stage is kept only for a request that sets one of those
   options: that is the sweep traffic the memo serves.  A request at
   their defaults is its own prepare key, and its repeats are plan-cache
   hits, so a stage kept for it would only sit in the major heap, which
   every collection marks: serve-warm asks every model at the defaults,
   and keeping its 26 stages (about 150k words) took that workload's
   tail from about 0.6 to 0.85-1.05 ms.  Designs are a few dozen words
   and are always kept. *)
let stages t (spec : P.compile_spec) r =
  let g = r.graph and options = spec.P.options in
  let fresh () =
    Atomic.incr t.dse_runs;
    Atomic.incr t.prepares;
    let dse = Accel.Dse.run_both ~device:spec.P.device spec.P.dtype g in
    let { Accel.Dse.config; table; _ } = dse.Accel.Dse.lcmm in
    (F.designs_of_dse g dse, F.prepare ~options config table g)
  in
  match r.memos with
  | None ->
    let designs, pr = fresh () in
    (designs, pr, false)
  | Some memos -> (
    let design_key =
      { design_dtype = spec.P.dtype;
        design_device = spec.P.device.Fpga.Device.device_name }
    in
    let key =
      { prepare_design = design_key;
        prepare_options = F.prepare_options options }
    in
    match Prepared.find memos.prepared key with
    | Some (designs, pr) ->
      Atomic.incr t.memo_hits;
      (designs, pr, true)
    | None ->
      let designs, pr =
        match Designs.find memos.designs design_key with
        | Some designs ->
          Atomic.incr t.memo_hits;
          Atomic.incr t.prepares;
          (designs, F.prepare_graph ~options designs.F.lcmm_config g)
        | None ->
          let ((designs, _) as stages) = fresh () in
          Designs.add ~bound:designs_memo_bound memos.designs design_key designs;
          stages
      in
      if options <> key.prepare_options then
        Prepared.add ~bound:prepared_memo_bound memos.prepared key (designs, pr);
      (designs, pr, false))

(* The planning both compile and simulate run: the design comparison,
   then the fusion gate.  The effective plan's pass times go on this
   engine's clock, less the prepared stage's when it came from the memo
   (the request did not run them); with fusion on, the
   reported LCMM plan is the effective plan and the payload carries the
   decisions. *)
let planned_comparison t (spec : P.compile_spec) r =
  let g = r.graph in
  let designs, prepared, memoized = stages t spec r in
  let c =
    F.compare_staged ~options:spec.P.options
      ~model:(P.target_name spec.P.target) designs g prepared
  in
  let plan, fz = Lcmm_fusion.Fusion.post c.F.lcmm_plan in
  charge_pass_times t
    (if memoized then
       F.sub_pass_times plan.F.pass_times (F.prepared_times prepared)
     else plan.F.pass_times);
  match fz with
  | None -> (c, None)
  | Some _ ->
    let lcmm = F.report_of_plan ~style_name:"LCMM+fusion" g plan in
    ( { c with
        F.lcmm_plan = plan;
        lcmm;
        speedup = c.F.umm.F.latency_seconds /. lcmm.F.latency_seconds },
      fz )

let compile_payload t (spec : P.compile_spec) ~digest r =
  let c, fz = planned_comparison t spec r in
  let plan = c.F.lcmm_plan in
  let helped, bound = F.helped_layers plan in
  Json.Obj
    (spec_fields spec ~digest
    @ [ ("umm", report_json c.F.umm); ("lcmm", report_json c.F.lcmm);
        ("speedup", Json.Float c.F.speedup);
        ("pol", Json.Float plan.F.pol);
        ("helped_layers", Json.Int helped);
        ("memory_bound_layers", Json.Int bound);
        ("tensor_sram_bytes", Json.Int plan.F.tensor_sram_bytes);
        ("splitting_iterations", Json.Int plan.F.splitting_iterations);
        ("buffers_chosen", Json.Int (List.length plan.F.allocation.Lcmm.Dnnk.chosen));
        ("buffers_spilled", Json.Int (List.length plan.F.allocation.Lcmm.Dnnk.spilled));
        ("options", P.options_to_json spec.P.options) ]
    @ fusion_fields fz)

let simulate_payload t (spec : P.compile_spec) ~digest ~images r =
  let c, fz = planned_comparison t spec r in
  let plan = c.F.lcmm_plan in
  let metric = plan.F.metric in
  let on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip in
  let umm = Sim.Engine.simulate_umm metric in
  let lcmm = Sim.Engine.simulate ?prefetch:plan.F.prefetch metric ~on_chip in
  let batch_fields =
    match images with
    | None -> []
    | Some n ->
      let b =
        Sim.Engine.simulate_batch ?prefetch:plan.F.prefetch ~images:n metric
          ~on_chip
      in
      [ ( "batch",
          Json.Obj
            [ ("images", Json.Int n);
              ("first_image_ms", Json.Float (b.Sim.Engine.first_image *. 1e3));
              ("steady_image_ms", Json.Float (b.Sim.Engine.steady_image *. 1e3));
              ("total_ms", Json.Float (b.Sim.Engine.batch_total *. 1e3));
              ("images_per_second", Json.Float b.Sim.Engine.images_per_second) ]
        ) ]
  in
  Json.Obj
    (spec_fields spec ~digest
    @ [ ("umm_ms", Json.Float (umm.Sim.Engine.total *. 1e3));
        ("lcmm_ms", Json.Float (lcmm.Sim.Engine.total *. 1e3));
        ("speedup", Json.Float (umm.Sim.Engine.total /. lcmm.Sim.Engine.total));
        ("prefetch_wait_ms", Json.Float (lcmm.Sim.Engine.prefetch_wait *. 1e3));
        ("wt_channel_busy_ms", Json.Float (lcmm.Sim.Engine.wt_channel_busy *. 1e3)) ]
    @ batch_fields @ fusion_fields fz)

(* Multi-tenant run: expand counts into per-instance runtime specs.  An
   inline graph gets a content-derived model key (from the bytes its
   digest hashes) so two different shipped graphs never share the
   runtime's per-model compilation cache. *)
let resolve_tenants (spec : P.run_spec) =
  let counter = Hashtbl.create 8 in
  let rec go acc tags = function
    | [] -> Ok (List.rev acc, List.rev tags)
    | (tn : P.run_tenant) :: rest -> (
      match resolve_target tn.P.tenant_target with
      | Error msg -> Error msg
      | Ok { graph = g; bytes; _ } ->
        let model =
          match tn.P.tenant_target with
          | P.Named name -> name
          | P.Inline _ ->
            "inline:" ^ String.sub (Digest.to_hex (Digest.string bytes)) 0 8
        in
        let instances =
          List.init tn.P.count (fun _ ->
              let k =
                Option.value ~default:0 (Hashtbl.find_opt counter model)
              in
              Hashtbl.replace counter model (k + 1);
              { Lcmm_runtime.Runtime.name = Printf.sprintf "%s#%d" model k;
                model;
                graph = g;
                priority = tn.P.tenant_priority;
                arrival = tn.P.arrival_s })
        in
        go (List.rev_append instances acc) ((bytes, P.tenant_key tn) :: tags)
          rest)
  in
  go [] [] spec.P.tenants

let run_payload (spec : P.run_spec) ~digest specs =
  let options =
    { Lcmm_runtime.Runtime.dtype = spec.P.run_dtype;
      device = spec.P.run_device;
      arbitration = spec.P.arbitration;
      scheduler = spec.P.scheduler;
      channels = spec.P.run_channels;
      partition = spec.P.sram_partition;
      overcommit = spec.P.overcommit;
      fw_options = spec.P.run_options;
      faults = spec.P.faults }
  in
  let report = Lcmm_runtime.Runtime.run options specs in
  match Lcmm_runtime.Report.to_json report with
  | Json.Obj fields -> Json.Obj (("digest", Json.String digest) :: fields)
  | other -> other

let models_payload () =
  Json.List
    (List.map
       (fun e ->
         let g = (resolve_zoo e).graph in
         Json.Obj
           [ ("name", Json.String e.Models.Zoo.model_name);
             ("nodes", Json.Int (Dnn_graph.Graph.node_count g));
             ( "gmacs",
               Json.Float (float_of_int (Dnn_graph.Graph.total_macs g) /. 1e9) );
             ( "weight_mb_i8",
               Json.Float
                 (float_of_int (Dnn_graph.Graph.weight_bytes Tensor.Dtype.I8 g)
                 /. 1e6) ) ])
       Models.Zoo.all)

let stats_payload t =
  let busy = Lcmm.Pool.busy t.worker_pool in
  Json.Obj
    [ ("cache", Plan_cache.stats_json t.plan_cache);
      ( "pool",
        Json.Obj
          [ ("domains", Json.Int (Lcmm.Pool.size t.worker_pool));
            ("busy", Json.Int busy);
            ("queued", Json.Int (Lcmm.Pool.queued t.worker_pool));
            ("restarts", Json.Int (Lcmm.Pool.restarts t.worker_pool)) ] );
      ("breakers", breakers_json t);
      ("metrics", Metrics.snapshot t.meters);
      ( "stages",
        Json.Obj
          [ ("dse_runs", Json.Int (Atomic.get t.dse_runs));
            ("prepares", Json.Int (Atomic.get t.prepares));
            ("memo_hits", Json.Int (Atomic.get t.memo_hits)) ] );
      ( "pass_times_us",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Float v))
             (F.pass_times_assoc (Atomic.get t.pass_clock))) ) ]

(* --- request execution --- *)

(* Compile and simulate cache under a digest that covers every input the
   passes read; the op name and simulate's batch size are folded in as
   [extra] so the two namespaces never collide.  A zoo model answers a
   key it has seen from its memo without hashing its bytes: equal keys
   give the digest the same MD5 input, so the memo is exact.  Inserts
   race by compare-and-set and add only a key still absent. *)
let cacheable_digest (spec : P.compile_spec) ~extra r =
  let hash () =
    Cache_key.request_digest_of_canonical ~extra ~dtype:spec.P.dtype
      ~device:spec.P.device ~options:spec.P.options r.bytes
  in
  match r.memos with
  | None -> hash ()
  | Some { digests; _ } -> (
    let key =
      { key_dtype = spec.P.dtype;
        key_device = spec.P.device.Fpga.Device.device_name;
        key_options = spec.P.options;
        key_extra = extra }
    in
    match Digests.find digests key with
    | Some digest -> digest
    | None ->
      let digest = hash () in
      Digests.add ~bound:digest_memo_bound digests key digest;
      digest)

let compile_digest spec r = cacheable_digest spec ~extra:[ "compile" ] r

let simulate_digest spec ~images r =
  cacheable_digest spec ~extra:[ "simulate"; P.images_key images ] r

let run_request_digest (spec : P.run_spec) tagged_bytes =
  Cache_key.run_digest_of_canonical ~extra:("run" :: P.run_key spec)
    ~dtype:spec.P.run_dtype ~device:spec.P.run_device
    ~options:spec.P.run_options tagged_bytes

(* The digest a request would cache under, computed without running it.
   The tier router keys its hash ring and front cache on this — it must
   agree exactly with what [handle_leaf] files the payload under, which
   is why both go through the helpers above.  [Ok None] marks requests
   with no stable identity (batch, stats, models): those bypass the
   cache tiers and route by other means. *)
let route_digest (request : P.request) =
  try
    match request with
    | P.Compile spec -> (
      match resolve_graph spec with
      | Error msg -> Error msg
      | Ok r -> Ok (Some (compile_digest spec r)))
    | P.Simulate (spec, images) -> (
      match resolve_graph spec with
      | Error msg -> Error msg
      | Ok r -> Ok (Some (simulate_digest spec ~images r)))
    | P.Run spec -> (
      match resolve_tenants spec with
      | Error msg -> Error msg
      | Ok (_, tagged_bytes) -> Ok (Some (run_request_digest spec tagged_bytes)))
    | P.Cache_get digest | P.Cache_put (digest, _) -> Ok (Some digest)
    | P.Batch _ | P.Stats | P.Models -> Ok None
  with e -> Error ("internal: " ^ Printexc.to_string e)

let through_cache t ~digest compute =
  match Plan_cache.find t.plan_cache digest with
  | Some payload -> (Hit, Ok payload)
  | None -> (
    match compute () with
    | payload ->
      (* The reply is the rendering just stored, so a miss renders its
         payload once, and its reply is the bytes a hit will send. *)
      let stored = Json.Raw (Json.compact payload) in
      Plan_cache.put t.plan_cache digest stored;
      (Miss, Ok stored)
    | exception Invalid_argument msg -> (Miss, Error msg)
    | exception Failure msg -> (Miss, Error msg)
    (* Any other escape is a bug in the passes, but one request must
       never take the connection down: degrade to an error response. *)
    | exception e -> (Miss, Error ("internal: " ^ Printexc.to_string e)))

(* Fully execute one non-batch request on the current thread. *)
let handle_leaf t (env : P.envelope) =
  let t0 = Unix.gettimeofday () in
  let op = P.op_name env.P.request in
  let cache_status, outcome =
    (* Nothing a single request does may take the connection down: any
       exception the arms below leak (model builders, digesting, the
       encoders) degrades to an error response on this request alone. *)
    try
      match env.P.request with
      | P.Batch _ -> (Uncached, Error "nested batch requests are not supported")
      | P.Stats -> (Uncached, Ok (stats_payload t))
      | P.Models -> (Uncached, Ok (models_payload ()))
      (* Direct cache access for the tier's peer-fill path: a probe
         answers from this process's cache only (no compute), a put
         seeds it with a payload compiled elsewhere. *)
      | P.Cache_get digest -> (
        match Plan_cache.find t.plan_cache digest with
        | Some payload -> (Hit, Ok payload)
        | None -> (Uncached, Error (Printf.sprintf "not cached: %s" digest)))
      | P.Cache_put (digest, payload) ->
        Plan_cache.put t.plan_cache digest payload;
        (Uncached, Ok (Json.Obj [ ("stored", Json.Bool true) ]))
      | P.Compile spec -> (
        match resolve_graph spec with
        | Error msg -> (Uncached, Error msg)
        | Ok r ->
          let digest = compile_digest spec r in
          through_cache t ~digest (fun () ->
              compile_payload t spec ~digest r))
      | P.Simulate (spec, images) -> (
        match resolve_graph spec with
        | Error msg -> (Uncached, Error msg)
        | Ok r ->
          let digest = simulate_digest spec ~images r in
          through_cache t ~digest (fun () ->
              simulate_payload t spec ~digest ~images r))
      | P.Run spec -> (
        match resolve_tenants spec with
        | Error msg -> (Uncached, Error msg)
        | Ok (specs, tagged_bytes) ->
          let digest = run_request_digest spec tagged_bytes in
          through_cache t ~digest (fun () -> run_payload spec ~digest specs))
    with e -> (Uncached, Error ("internal: " ^ Printexc.to_string e))
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  Metrics.record t.meters ~op ~ok:(Result.is_ok outcome) ~seconds:elapsed_s;
  Log.info (fun m ->
      m "%s%s -> %s in %.2f ms" op
        (match env.P.request with
        | P.Compile spec | P.Simulate (spec, _) ->
          " " ^ P.target_name spec.P.target
        | P.Run spec ->
          Printf.sprintf " %d tenant spec(s)" (List.length spec.P.tenants)
        | P.Cache_get digest | P.Cache_put (digest, _) -> " " ^ digest
        | P.Batch _ | P.Stats | P.Models -> "")
        (match cache_status, outcome with
        | Hit, _ -> "hit"
        | Miss, Ok _ -> "miss"
        | Miss, Error _ | Uncached, Error _ -> "error"
        | Uncached, Ok _ -> "ok")
        (elapsed_s *. 1e3));
  { id = env.P.id; op; cache = cache_status; elapsed_s; outcome; subs = [];
    checksum = env.P.checksum }

let deadline_error ms =
  Printf.sprintf "deadline exceeded: still computing after the %.0f ms budget"
    ms

let timeout_response t (env : P.envelope) ~elapsed_s ~ms =
  let op = P.op_name env.P.request in
  Metrics.record t.meters ~op ~ok:false ~seconds:elapsed_s;
  Log.info (fun m -> m "%s -> deadline exceeded after %.2f ms" op (elapsed_s *. 1e3));
  { id = env.P.id;
    op;
    cache = Uncached;
    elapsed_s;
    outcome = Error (deadline_error ms);
    subs = [];
    checksum = env.P.checksum }

let shed_response t (env : P.envelope) msg =
  let op = P.op_name env.P.request in
  Metrics.record t.meters ~op ~ok:false ~seconds:0.;
  Log.info (fun m -> m "%s -> shed: %s" op msg);
  { id = env.P.id; op; cache = Uncached; elapsed_s = 0.; outcome = Error msg;
    subs = []; checksum = env.P.checksum }

(* Which requests the circuit breaker guards: the expensive pool-bound
   compute ops.  [stats]/[models] must keep answering even when the
   compute path is tripped — that's how an operator sees the trip. *)
let breaker_guarded (env : P.envelope) =
  match env.P.request with
  | P.Compile _ | P.Simulate _ | P.Run _ -> true
  | P.Batch _ | P.Stats | P.Models | P.Cache_get _ | P.Cache_put _ -> false

(* Admit a request past its op's breaker and hand it to the pool; a
   request the breaker sheds never reaches the pool. *)
let dispatch t (env : P.envelope) =
  match
    if breaker_guarded env then breaker_admit t (P.op_name env.P.request)
    else None
  with
  | Some msg -> Error (shed_response t env msg)
  | None -> Ok (Lcmm.Pool.submit t.worker_pool (fun () -> handle_leaf t env))

(* Wait for a dispatched request and record its outcome with its op's
   breaker.  A deadline of [ms] is measured from [t0]; past it the
   request answers with a timeout response. *)
let collect t ~t0 ~deadline_ms (env : P.envelope) = function
  | Error shed -> shed
  | Ok fut -> (
    let record r =
      if breaker_guarded env then
        breaker_record t (P.op_name env.P.request) r.outcome;
      r
    in
    match deadline_ms with
    | None -> (
      match Lcmm.Pool.await fut with Ok r -> record r | Error e -> raise e)
    | Some ms -> (
      let remaining = (ms /. 1e3) -. (Unix.gettimeofday () -. t0) in
      match Lcmm.Pool.await_within ~seconds:remaining fut with
      | Some (Ok r) -> record r
      | Some (Error e) -> raise e
      | None ->
        record
          (timeout_response t env ~elapsed_s:(Unix.gettimeofday () -. t0) ~ms)))

let handle t (env : P.envelope) =
  let deadline_ms =
    match env.P.deadline_ms with
    | Some ms -> Some ms
    | None -> t.default_deadline_ms
  in
  match env.P.request with
  | P.Batch subs ->
    (* Fan out on the caller thread: workers run leaves only, so a full
       pool can never deadlock on its own sub-jobs.  Sub-request
       deadlines are measured from the batch's start (the batch budget
       bounds the whole fan-out); a sub may carry its own override. *)
    let t0 = Unix.gettimeofday () in
    let futures = List.map (dispatch t) subs in
    let responses =
      List.map2
        (fun (sub : P.envelope) fut ->
          let deadline_ms =
            match sub.P.deadline_ms with
            | Some ms -> Some ms
            | None -> deadline_ms
          in
          collect t ~t0 ~deadline_ms sub fut)
        subs futures
    in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    Metrics.record t.meters ~op:"batch" ~ok:true ~seconds:elapsed_s;
    Log.info (fun m ->
        m "batch of %d -> done in %.2f ms" (List.length subs) (elapsed_s *. 1e3));
    { id = env.P.id;
      op = "batch";
      cache = Uncached;
      elapsed_s;
      outcome = Ok (Json.List []);  (* rendered from [subs] when any *)
      subs = responses;
      checksum = env.P.checksum }
  | P.Compile _ | P.Simulate _ | P.Run _ ->
    let t0 = Unix.gettimeofday () in
    collect t ~t0 ~deadline_ms env (dispatch t env)
  (* Cache probes and seeds are cheap table lookups; like stats they run
     on the caller thread and bypass breakers and deadlines, so peer
     fill keeps working while a shard's compute path is tripped. *)
  | P.Stats | P.Models | P.Cache_get _ | P.Cache_put _ -> handle_leaf t env

let rec response_to_json ?(timing = true) r =
  let cache_field =
    if not timing then None
    else
      match r.cache with
      | Hit -> Some "hit"
      | Miss -> Some "miss"
      | Uncached -> None
  in
  let elapsed_ms = if timing then Some (r.elapsed_s *. 1e3) else None in
  let result =
    match r.subs with
    | _ :: _ -> Ok (Json.List (List.map (response_to_json ~timing) r.subs))
    | [] -> r.outcome
  in
  match result with
  | Ok payload ->
    Wire.ok ?id:r.id ~op:r.op ?cache:cache_field ?elapsed_ms ~sum:r.checksum
      payload
  | Error msg -> Wire.error ?id:r.id ~op:r.op msg

let handle_line ?timing t line =
  match P.request_of_line line with
  | Error msg ->
    Metrics.record t.meters ~op:"parse" ~ok:false ~seconds:0.;
    Log.info (fun m -> m "parse error: %s" msg);
    Wire.to_line (Wire.error ~op:"parse" msg)
  | Ok env -> (
    match handle t env with
    | resp -> Wire.to_line (response_to_json ?timing resp)
    | exception e ->
      (* The pool or the dispatcher itself failed; the "never raises"
         contract still holds. *)
      Log.err (fun m -> m "request dispatch raised: %s" (Printexc.to_string e));
      Wire.to_line
        (Wire.error ?id:env.P.id ~op:(P.op_name env.P.request)
           ("internal: " ^ Printexc.to_string e)))

let cache t = t.plan_cache

let pool t = t.worker_pool

let shutdown t = Lcmm.Pool.shutdown t.worker_pool
