(* The plan-compilation service: LRU cache, cache keys, the domain
   worker pool, the request protocol and the end-to-end engine. *)

module Json = Dnn_serial.Json
module Svc = Lcmm_service
module F = Lcmm.Framework
module P = Svc.Protocol

let json_t = Alcotest.testable Json.pp Json.equal

(* --- Plan_cache (exercises the Lru underneath) --- *)

let test_cache_lru_eviction () =
  let cache = Svc.Plan_cache.create ~max_entries:2 ~max_bytes:1_000_000 () in
  Svc.Plan_cache.put cache "aa" (Json.Int 1);
  Svc.Plan_cache.put cache "bb" (Json.Int 2);
  (* Touch "aa" so "bb" is the LRU entry when "cc" arrives. *)
  Alcotest.(check bool) "aa present" true (Svc.Plan_cache.find cache "aa" <> None);
  Svc.Plan_cache.put cache "cc" (Json.Int 3);
  Alcotest.(check bool) "bb evicted" true (Svc.Plan_cache.find cache "bb" = None);
  Alcotest.(check bool) "aa survives" true (Svc.Plan_cache.find cache "aa" <> None);
  Alcotest.(check bool) "cc present" true (Svc.Plan_cache.find cache "cc" <> None);
  let s = Svc.Plan_cache.stats cache in
  Alcotest.(check int) "entries" 2 s.Svc.Plan_cache.entries;
  Alcotest.(check int) "evictions" 1 s.Svc.Plan_cache.evictions

let test_cache_byte_bound () =
  (* Payloads of ~13 bytes each; a 30-byte bound holds about two. *)
  let cache = Svc.Plan_cache.create ~max_entries:100 ~max_bytes:30 () in
  List.iter
    (fun key -> Svc.Plan_cache.put cache key (Json.String "0123456789"))
    [ "k1"; "k2"; "k3"; "k4" ];
  let s = Svc.Plan_cache.stats cache in
  Alcotest.(check bool) "byte bound enforced" true
    (s.Svc.Plan_cache.bytes <= 30 && s.Svc.Plan_cache.entries <= 2);
  Alcotest.(check bool) "evictions counted" true (s.Svc.Plan_cache.evictions >= 2)

let test_cache_persistence () =
  let dir = Filename.temp_file "lcmm_cache" "" in
  Sys.remove dir;
  let payload = Json.Obj [ ("x", Json.Int 42) ] in
  let c1 = Svc.Plan_cache.create ~persist_dir:dir () in
  Svc.Plan_cache.put c1 "deadbeef" payload;
  Alcotest.(check bool) "file written" true
    (Sys.file_exists (Filename.concat dir "deadbeef.json"));
  (* A fresh cache over the same directory rewarms from disk. *)
  let c2 = Svc.Plan_cache.create ~persist_dir:dir () in
  (match Svc.Plan_cache.find c2 "deadbeef" with
  | Some v -> Alcotest.check json_t "rewarmed payload" payload v
  | None -> Alcotest.fail "expected a disk hit");
  let s = Svc.Plan_cache.stats c2 in
  Alcotest.(check int) "disk load counted" 1 s.Svc.Plan_cache.disk_loads;
  Alcotest.(check int) "counts as hit" 1 s.Svc.Plan_cache.hits;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

(* --- Cache_key --- *)

let test_cache_key_stability () =
  let g1 = Helpers.chain () in
  let g2 = Helpers.chain () in
  let o = F.default_options in
  let key g opts dtype device =
    Svc.Cache_key.request_digest ~dtype ~device ~options:opts g
  in
  let base = key g1 o Tensor.Dtype.I16 Fpga.Device.vu9p in
  Alcotest.(check string) "same inputs, same digest" base
    (key g2 o Tensor.Dtype.I16 Fpga.Device.vu9p);
  let distinct name other = Alcotest.(check bool) name true (other <> base) in
  distinct "graph perturbation" (key (Helpers.diamond ()) o Tensor.Dtype.I16 Fpga.Device.vu9p);
  distinct "dtype perturbation" (key g1 o Tensor.Dtype.I8 Fpga.Device.vu9p);
  distinct "device perturbation" (key g1 o Tensor.Dtype.I16 Fpga.Device.u250);
  (* Every options field must reach the digest. *)
  let perturbed =
    [ ("feature_reuse", { o with F.feature_reuse = false });
      ("weight_prefetch", { o with F.weight_prefetch = false });
      ("buffer_splitting", { o with F.buffer_splitting = false });
      ("buffer_sharing", { o with F.buffer_sharing = false });
      ("memory_bound_only", { o with F.memory_bound_only = false });
      ("compensation", { o with F.compensation = Lcmm.Dnnk.Exact_iterative });
      ("coloring", { o with F.coloring = Lcmm.Coloring.First_fit });
      ("capacity_override", { o with F.capacity_override = Some 1024 });
      ("weight_slices", { o with F.weight_slices = 4 });
      ("fusion", { o with F.fusion = true });
      ("channels", { o with F.channels = 4 }) ]
  in
  List.iter
    (fun (name, opts) ->
      distinct (name ^ " perturbation")
        (key g1 opts Tensor.Dtype.I16 Fpga.Device.vu9p))
    perturbed

(* --- Pool --- *)

let test_pool_map () =
  let pool = Lcmm.Pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Lcmm.Pool.shutdown pool)
    (fun () ->
      let xs = List.init 50 Fun.id in
      let squares = Lcmm.Pool.map_list pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) squares;
      Alcotest.(check int) "size" 3 (Lcmm.Pool.size pool))

let test_pool_exceptions () =
  let pool = Lcmm.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Lcmm.Pool.shutdown pool)
    (fun () ->
      (match Lcmm.Pool.await (Lcmm.Pool.submit pool (fun () -> failwith "boom")) with
      | Error (Failure msg) -> Alcotest.(check string) "exception carried" "boom" msg
      | Error _ -> Alcotest.fail "wrong exception"
      | Ok () -> Alcotest.fail "expected failure");
      (* The worker survives a failed job. *)
      Alcotest.(check int) "worker alive" 7 (Lcmm.Pool.run pool (fun () -> 7)))

let test_pool_shutdown_rejects () =
  let pool = Lcmm.Pool.create ~domains:1 () in
  Lcmm.Pool.shutdown pool;
  Lcmm.Pool.shutdown pool;  (* idempotent *)
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Lcmm.Pool.submit pool (fun () -> ())))

(* OCaml 5.1 runs at most 128 domains: a count past 127 workers is
   refused before any domain is spawned (every count here is rejected,
   so this test starts none). *)
let test_pool_domain_bound () =
  List.iter
    (fun domains ->
      Alcotest.check_raises (Printf.sprintf "%d domains" domains)
        (Invalid_argument "Pool.create: domains must be <= 127") (fun () ->
          ignore (Lcmm.Pool.create ~domains ())))
    [ 128; 200; max_int ];
  Alcotest.check_raises "0 domains"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Lcmm.Pool.create ~domains:0 ()))

(* --cache-mb and --router-cache-mb go through Lru.bytes_of_mb, which
   refuses every count whose byte product would wrap (8796093022272 MB
   once wrapped to 64 MiB, 4398046511104 MB to a negative bound). *)
let test_lru_bytes_of_mb () =
  let max_mb = max_int / (1024 * 1024) in
  let message =
    Printf.sprintf "expected a count of megabytes from 1 to %d" max_mb
  in
  Alcotest.(check (result int string)) "64 MB" (Ok (64 * 1024 * 1024))
    (Svc.Lru.bytes_of_mb 64);
  Alcotest.(check (result int string)) "largest" (Ok (max_mb * 1024 * 1024))
    (Svc.Lru.bytes_of_mb max_mb);
  List.iter
    (fun mb ->
      Alcotest.(check (result int string)) (string_of_int mb) (Error message)
        (Svc.Lru.bytes_of_mb mb))
    [ min_int; -1; 0; max_mb + 1; 4398046511104; 8796093022272; max_int ]

(* --- Protocol --- *)

let parse_exn line =
  match P.request_of_line line with
  | Ok env -> env
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_protocol_parse () =
  let env = parse_exn {|{"op":"compile","id":7,"model":"alexnet","dtype":"i8"}|} in
  Alcotest.(check bool) "id echoed" true (env.P.id = Some (Json.Int 7));
  (match env.P.request with
  | P.Compile spec ->
    Alcotest.(check string) "target" "alexnet" (P.target_name spec.P.target);
    Alcotest.(check bool) "dtype" true (spec.P.dtype = Tensor.Dtype.I8);
    Alcotest.(check string) "device default" "vu9p"
      spec.P.device.Fpga.Device.device_name
  | _ -> Alcotest.fail "expected compile");
  let env =
    parse_exn
      {|{"op":"simulate","model":"vgg16","images":8,"options":{"weight_slices":2,"coloring":"first_fit"}}|}
  in
  (match env.P.request with
  | P.Simulate (spec, Some 8) ->
    Alcotest.(check int) "weight_slices" 2 spec.P.options.F.weight_slices;
    Alcotest.(check bool) "coloring" true
      (spec.P.options.F.coloring = Lcmm.Coloring.First_fit)
  | _ -> Alcotest.fail "expected simulate with images");
  (* Inline graphs ride along as codec documents. *)
  let g = Helpers.chain () in
  let line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.String "compile");
           ("graph", Dnn_serial.Codec.graph_to_json g) ])
  in
  (match (parse_exn line).P.request with
  | P.Compile { P.target = P.Inline g'; _ } ->
    Alcotest.(check int) "inline graph nodes" (Dnn_graph.Graph.node_count g)
      (Dnn_graph.Graph.node_count g')
  | _ -> Alcotest.fail "expected inline compile")

(* Each line is rejected with exactly its message: the texts a client
   sees, one bad value per decoded field. *)
let check_rejects cases =
  List.iter
    (fun (line, msg) ->
      match P.request_of_line line with
      | Ok _ -> Alcotest.failf "expected rejection for %s" line
      | Error got -> Alcotest.(check string) line msg got)
    cases

let test_protocol_rejects () =
  check_rejects
    [ ({|not json|},
        {|JSON error at offset 0: invalid literal (expected null)|});
      ({|{"model":"alexnet"}|}, {|missing field "op"|});
      ({|{"op":5}|}, {|expected a string|});
      ({|{"op":"frobnicate"}|},
        {|unknown op "frobnicate" (known: compile simulate run batch stats models cache_get cache_put)|});
      ({|{"op":"compile"}|}, {|missing target: give "model" or "graph"|});
      ({|{"op":"compile","model":"a","graph":{}}|},
        {|give either "model" or "graph", not both|});
      ({|{"op":"compile","model":5}|}, {|expected a string|});
      ({|{"op":"compile","graph":5}|},
        {|expected an object with field "format"|});
      ({|{"op":"compile","model":"alexnet","dtype":"i4"}|},
        {|unknown dtype "i4"|});
      ({|{"op":"compile","model":"alexnet","dtype":16}|},
        {|expected a string|});
      ({|{"op":"compile","model":"alexnet","device":"stratix"}|},
        {|unknown device "stratix"|});
      ({|{"op":"compile","model":"alexnet","device":1}|},
        {|expected a string|});
      ({|{"op":"compile","model":"alexnet","options":5}|},
        {|field "options": expected an object|});
      ({|{"op":"compile","model":"alexnet","options":{"feature_reuse":1}}|},
        {|field "feature_reuse": expected a boolean|});
      ({|{"op":"compile","model":"alexnet","options":{"weight_prefetch":"no"}}|},
        {|field "weight_prefetch": expected a boolean|});
      ({|{"op":"compile","model":"alexnet","options":{"buffer_splitting":null}}|},
        {|field "buffer_splitting": expected a boolean|});
      ({|{"op":"compile","model":"alexnet","options":{"buffer_sharing":0}}|},
        {|field "buffer_sharing": expected a boolean|});
      ({|{"op":"compile","model":"alexnet","options":{"memory_bound_only":"true"}}|},
        {|field "memory_bound_only": expected a boolean|});
      ({|{"op":"compile","model":"alexnet","options":{"compensation":"lp"}}|},
        {|field "compensation": expected "table" or "exact"|});
      ({|{"op":"compile","model":"alexnet","options":{"compensation":1}}|},
        {|field "compensation": expected "table" or "exact"|});
      ({|{"op":"compile","model":"alexnet","options":{"coloring":"dsatur"}}|},
        {|field "coloring": expected "min_growth" or "first_fit"|});
      ({|{"op":"compile","model":"alexnet","options":{"capacity_override":0}}|},
        {|field "capacity_override": expected a positive byte count|});
      ({|{"op":"compile","model":"alexnet","options":{"capacity_override":"big"}}|},
        {|field "capacity_override": expected an integer or null|});
      ({|{"op":"compile","model":"alexnet","options":{"weight_slices":0}}|},
        {|field "weight_slices": expected a count >= 1|});
      ({|{"op":"compile","model":"alexnet","options":{"weight_slices":1.5}}|},
        {|field "weight_slices": expected an integer|});
      ({|{"op":"compile","model":"alexnet","options":{"fusion":"yes"}}|},
        {|field "fusion": expected a boolean|});
      ({|{"op":"compile","model":"alexnet","options":{"channels":5}}|},
        {|field "channels": expected a count from 1 to 4 (vu9p)|});
      ({|{"op":"compile","model":"alexnet","options":{"channels":0}}|},
        {|field "channels": expected a count from 1 to 4 (vu9p)|});
      ({|{"op":"compile","model":"alexnet","options":{"channels":"two"}}|},
        {|field "channels": expected an integer|});
      ({|{"op":"compile","model":"alexnet","device":"zu9eg","options":{"channels":2}}|},
        {|field "channels": expected a count from 1 to 1 (zu9eg)|});
      ({|{"op":"compile","model":"alexnet","deadline_ms":0}|},
        {|field "deadline_ms": expected a positive number|});
      ({|{"op":"compile","model":"alexnet","deadline_ms":"soon"}|},
        {|field "deadline_ms": expected a number|});
      ({|{"op":"compile","model":"alexnet","checksum":"yes"}|},
        {|field "checksum": expected a boolean|});
      ({|{"op":"simulate","model":"alexnet","images":0}|},
        {|field "images": expected a count >= 1|});
      ({|{"op":"simulate","model":"alexnet","images":"x"}|},
        {|field "images": expected an integer|});
      ({|{"op":"batch"}|}, {|missing field "requests"|});
      ({|{"op":"batch","requests":5}|}, {|expected an array|});
      ({|{"op":"batch","requests":[{"op":"batch","requests":[]}]}|},
        {|nested batch requests are not supported|});
      ({|{"op":"batch","requests":[{"op":"compile","model":"alexnet","images":0,"options":{"fusion":0}}]}|},
        {|field "fusion": expected a boolean|});
      ({|{"op":"cache_get"}|}, {|missing field "digest"|});
      ({|{"op":"cache_get","digest":5}|},
        {|field "digest": expected a string|});
      ({|{"op":"cache_get","digest":"XYZ"}|},
        {|field "digest": expected a lowercase hex digest|});
      ({|{"op":"cache_put","digest":"abc"}|}, {|missing field "payload"|}) ]

(* Every option off its default, one at a time and all at once, comes
   back from its own encoding unchanged. *)
let test_options_roundtrip () =
  let d = F.default_options in
  let singles =
    [ { d with F.feature_reuse = false };
      { d with F.weight_prefetch = false };
      { d with F.buffer_splitting = false };
      { d with F.buffer_sharing = false };
      { d with F.memory_bound_only = false };
      { d with F.compensation = Lcmm.Dnnk.Exact_iterative };
      { d with F.coloring = Lcmm.Coloring.First_fit };
      { d with F.capacity_override = Some 123_456 };
      { d with F.weight_slices = 3 };
      { d with F.fusion = true };
      { d with F.channels = 4 } ]
  in
  let all_off =
    { F.feature_reuse = false;
      weight_prefetch = false;
      buffer_splitting = false;
      buffer_sharing = false;
      memory_bound_only = false;
      compensation = Lcmm.Dnnk.Exact_iterative;
      coloring = Lcmm.Coloring.First_fit;
      capacity_override = Some 123_456;
      weight_slices = 3;
      fusion = true;
      channels = 4 }
  in
  List.iter
    (fun o -> Alcotest.(check bool) "off its default" true (o <> d))
    (all_off :: singles);
  (* The encoding keeps its key order, and leaves one channel out. *)
  List.iter
    (fun (o, text) ->
      Alcotest.(check string) "encoding" text
        (Json.to_string (P.options_to_json o)))
    [ ( d,
        {|{"feature_reuse":true,"weight_prefetch":true,"buffer_splitting":true,"buffer_sharing":true,"memory_bound_only":true,"compensation":"table","coloring":"min_growth","capacity_override":null,"weight_slices":1,"fusion":false}|}
      );
      ( all_off,
        {|{"feature_reuse":false,"weight_prefetch":false,"buffer_splitting":false,"buffer_sharing":false,"memory_bound_only":false,"compensation":"exact","coloring":"first_fit","capacity_override":123456,"weight_slices":3,"fusion":true,"channels":4}|}
      ) ];
  List.iter
    (fun o ->
      let line =
        Json.to_string
          (Json.Obj
             [ ("op", Json.String "compile"); ("model", Json.String "alexnet");
               ("options", P.options_to_json o) ])
      in
      match (parse_exn line).P.request with
      | P.Compile spec ->
        Alcotest.(check bool) ("options round-trip: " ^ line) true
          (spec.P.options = o)
      | _ -> Alcotest.fail "expected compile")
    (d :: all_off :: singles)

(* --- Engine integration --- *)

let with_engine ?cache ~domains fn =
  let pool = Lcmm.Pool.create ~domains () in
  let engine = Svc.Engine.create ?cache ~pool () in
  Fun.protect ~finally:(fun () -> Svc.Engine.shutdown engine) (fun () -> fn engine)

let handle_line ?(timing = true) engine line =
  Svc.Engine.handle_line ~timing engine line

let field_exn key v =
  match Json.member key v with
  | Ok f -> f
  | Error msg -> Alcotest.failf "field %s: %s" key msg

let result_of_line line =
  match Json.of_string (String.trim line) with
  | Error msg -> Alcotest.failf "bad response line: %s" msg
  | Ok v -> v

(* The reply lines [lcmm serve]'s read loop writes for [input]. *)
let serve_input engine input =
  let path = Filename.temp_file "lcmm_serve" ".ndjson" in
  let out = path ^ ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ path; out ])
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc input);
      In_channel.with_open_bin path (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Svc.Server.serve_channels (handle_line engine) ic oc));
      Helpers.read_lines out)

let test_engine_compile_cache_hit () =
  with_engine ~domains:2 (fun engine ->
      (* DenseNet-121 at a 2 MiB budget with sliced weights and fusion:
         a cold compile of tens of milliseconds even in a process that
         earlier suites warmed up, so the 5x margin below is not at the
         mercy of scheduling noise.  A hit reads the model's digest
         memo and the plan cache. *)
      let request =
        {|{"op":"compile","id":1,"model":"densenet121","options":{"capacity_override":2097152,"weight_slices":8,"fusion":true}}|}
      in
      let t0 = Unix.gettimeofday () in
      let first = result_of_line (handle_line engine request) in
      let cold_s = Unix.gettimeofday () -. t0 in
      let t1 = Unix.gettimeofday () in
      let second = result_of_line (handle_line engine request) in
      let warm_s = Unix.gettimeofday () -. t1 in
      Alcotest.check json_t "miss then hit" (Json.String "miss")
        (field_exn "cache" first);
      Alcotest.check json_t "hit on repeat" (Json.String "hit")
        (field_exn "cache" second);
      Alcotest.check json_t "same result payload" (field_exn "result" first)
        (field_exn "result" second);
      (* The hit answers from the table: orders of magnitude faster than
         the cold compile.  Assert a lax 5x to stay robust under load. *)
      Alcotest.(check bool)
        (Printf.sprintf "hit faster than cold (%.2f ms vs %.2f ms)"
           (warm_s *. 1e3) (cold_s *. 1e3))
        true
        (warm_s < cold_s /. 5.);
      (* The stats counters saw exactly one miss and one hit. *)
      let stats = result_of_line (handle_line engine {|{"op":"stats"}|}) in
      let cache_stats = field_exn "cache" (field_exn "result" stats) in
      Alcotest.check json_t "one hit" (Json.Int 1) (field_exn "hits" cache_stats);
      Alcotest.check json_t "one miss" (Json.Int 1)
        (field_exn "misses" cache_stats);
      let pool_stats = field_exn "pool" (field_exn "result" stats) in
      Alcotest.check json_t "two domains" (Json.Int 2)
        (field_exn "domains" pool_stats))

(* Each engine's stats count only the plans it computed itself: a
   compile on one engine leaves another engine's pass times at zero. *)
let test_engine_pass_times_per_engine () =
  with_engine ~domains:1 (fun a ->
      with_engine ~domains:1 (fun b ->
          let pass_times engine =
            let stats = result_of_line (handle_line engine {|{"op":"stats"}|}) in
            match field_exn "pass_times_us" (field_exn "result" stats) with
            | Json.Obj fields ->
              List.map
                (fun (k, v) ->
                  match Json.to_float v with
                  | Ok us -> (k, us)
                  | Error msg -> Alcotest.failf "pass_times_us.%s: %s" k msg)
                fields
            | _ -> Alcotest.fail "pass_times_us is not an object"
          in
          let compiled =
            result_of_line
              (handle_line a {|{"op":"compile","model":"alexnet"}|})
          in
          Alcotest.check json_t "A compiled" (Json.Bool true)
            (field_exn "ok" compiled);
          List.iter
            (fun (k, us) -> Alcotest.(check (float 0.)) ("B " ^ k) 0. us)
            (pass_times b);
          Alcotest.(check bool) "A dnnk_us > 0" true
            (List.assoc "dnnk_us" (pass_times a) > 0.)))

let test_engine_simulate_and_errors () =
  with_engine ~domains:1 (fun engine ->
      let ok =
        result_of_line
          (handle_line engine {|{"op":"simulate","model":"alexnet","images":4}|})
      in
      Alcotest.check json_t "simulate ok" (Json.Bool true) (field_exn "ok" ok);
      let result = field_exn "result" ok in
      (match Json.to_float (field_exn "lcmm_ms" result) with
      | Ok ms -> Alcotest.(check bool) "positive latency" true (ms > 0.)
      | Error msg -> Alcotest.fail msg);
      let batch = field_exn "batch" result in
      Alcotest.check json_t "batch images" (Json.Int 4) (field_exn "images" batch);
      (* Unknown models are an error response, not a dead worker. *)
      let err =
        result_of_line (handle_line engine {|{"op":"compile","model":"nope"}|})
      in
      Alcotest.check json_t "error flagged" (Json.Bool false) (field_exn "ok" err);
      (* The service keeps answering after an error. *)
      let again =
        result_of_line (handle_line engine {|{"op":"compile","model":"alexnet"}|})
      in
      Alcotest.check json_t "alive after error" (Json.Bool true)
        (field_exn "ok" again);
      let parse_err = result_of_line (handle_line engine "{naked garbage") in
      Alcotest.check json_t "parse error op" (Json.String "parse")
        (field_exn "op" parse_err))

(* End-to-end integrity: a request carrying ["checksum": true] gets a
   ["sum"] digest of the compact result payload; one without does not
   (so the default client-visible rendering is unchanged).  The sum is
   what the tier router validates replies against. *)
let test_engine_checksum () =
  with_engine ~domains:1 (fun engine ->
      let plain =
        result_of_line
          (handle_line ~timing:false engine
             {|{"op":"compile","model":"alexnet","dtype":"i8"}|})
      in
      Alcotest.(check bool) "no sum unless asked" true
        (Json.member_opt "sum" plain = None);
      let summed =
        result_of_line
          (handle_line ~timing:false engine
             {|{"op":"compile","model":"alexnet","dtype":"i8","checksum":true}|})
      in
      (match Json.member_opt "sum" summed with
      | Some (Json.String sum) ->
        Alcotest.(check string) "sum is the digest of the compact payload"
          (Dnn_serial.Codec.digest_string
             (Json.to_string (field_exn "result" summed)))
          sum
      | _ -> Alcotest.fail "expected a sum field");
      Alcotest.check json_t "payload unchanged by the checksum request"
        (field_exn "result" plain) (field_exn "result" summed);
      (* Errors carry no sum — there is no payload to digest. *)
      let err =
        result_of_line
          (handle_line engine {|{"op":"compile","model":"nope","checksum":true}|})
      in
      Alcotest.(check bool) "no sum on errors" true
        (Json.member_opt "sum" err = None))

(* The acceptance property: a ≥2-domain pool answers a parallel batch
   byte-identically to a 1-domain (sequential) pool in canonical
   (timing-free) form.  The LCMM passes are pure, so this must hold. *)
let determinism_batch =
  {|{"op":"batch","id":99,"requests":[
      {"op":"compile","id":0,"model":"alexnet","dtype":"i16"},
      {"op":"compile","id":1,"model":"alexnet","dtype":"i8"},
      {"op":"compile","id":2,"model":"squeezenet","dtype":"i16"},
      {"op":"simulate","id":3,"model":"alexnet","dtype":"i16","images":4},
      {"op":"compile","id":4,"model":"alexnet","dtype":"i16","options":{"weight_slices":2}},
      {"op":"models","id":5}]}|}
  |> String.split_on_char '\n' |> List.map String.trim |> String.concat ""

let test_engine_parallel_determinism () =
  let run domains =
    with_engine ~domains (fun engine ->
        handle_line ~timing:false engine determinism_batch)
  in
  let sequential = run 1 in
  let parallel = run 3 in
  Alcotest.(check string) "parallel == sequential, byte for byte" sequential
    parallel;
  (* And re-running the parallel engine is stable with itself. *)
  Alcotest.(check string) "parallel is reproducible" parallel (run 3)

let test_engine_batch_parallel_speed () =
  (* Not a strict benchmark — just pin down that a batch on a multi-domain
     pool actually uses the workers: occupancy observed via stats while
     jobs are in flight is hard to do deterministically, so instead check
     the batch result order matches request order. *)
  with_engine ~domains:2 (fun engine ->
      let resp = result_of_line (handle_line engine determinism_batch) in
      let subs =
        match Json.to_list (field_exn "result" resp) with
        | Ok l -> l
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check int) "six sub-responses" 6 (List.length subs);
      List.iteri
        (fun i sub ->
          Alcotest.check json_t
            (Printf.sprintf "sub %d in request order" i)
            (Json.Int i) (field_exn "id" sub))
        subs)

(* --- run op and per-request deadlines --- *)

let test_protocol_run_parse () =
  let env =
    parse_exn
      {|{"op":"run","tenants":[{"model":"googlenet","count":2},{"model":"vgg16","priority":1,"arrival_ms":500}],"scheduler":"greedy"}|}
  in
  (match env.P.request with
  | P.Run spec ->
    (match spec.P.tenants with
    | [ a; b ] ->
      Alcotest.(check string) "tenant 0 model" "googlenet"
        (P.target_name a.P.tenant_target);
      Alcotest.(check int) "tenant 0 count" 2 a.P.count;
      Alcotest.(check int) "priority default" 0 a.P.tenant_priority;
      Alcotest.(check int) "count default" 1 b.P.count;
      Alcotest.(check int) "tenant 1 priority" 1 b.P.tenant_priority;
      Alcotest.(check (float 1e-12)) "arrival_ms -> seconds" 0.5 b.P.arrival_s
    | _ -> Alcotest.fail "expected two tenants");
    Alcotest.(check bool) "scheduler parsed" true
      (spec.P.scheduler = Lcmm_runtime.Scheduler.Greedy);
    Alcotest.(check bool) "arbitration default" true
      (spec.P.arbitration = Lcmm_runtime.Arbiter.Fair_share);
    Alcotest.(check bool) "partition default" true
      (spec.P.sram_partition = Lcmm_runtime.Partition.Equal);
    Alcotest.(check (float 1e-12)) "overcommit default" 4.0 spec.P.overcommit
  | _ -> Alcotest.fail "expected run");
  (* The deadline rides in the envelope, on any op. *)
  let env =
    parse_exn {|{"op":"compile","model":"alexnet","deadline_ms":250.5}|}
  in
  Alcotest.(check bool) "deadline parsed" true
    (env.P.deadline_ms = Some 250.5);
  let env = parse_exn {|{"op":"stats"}|} in
  Alcotest.(check bool) "deadline absent by default" true
    (env.P.deadline_ms = None)

let test_protocol_run_rejects () =
  check_rejects
    [ ({|{"op":"run"}|}, {|missing field "tenants"|});
      ({|{"op":"run","tenants":5}|}, {|expected an array|});
      ({|{"op":"run","tenants":[]}|},
        {|field "tenants": expected a non-empty list|});
      ({|{"op":"run","tenants":[{"count":2}]}|},
        {|missing target: give "model" or "graph"|});
      ({|{"op":"run","tenants":[{"model":"alexnet","count":0}]}|},
        {|field "count": expected a count >= 1|});
      ({|{"op":"run","tenants":[{"model":"alexnet","count":"2"}]}|},
        {|field "count": expected an integer|});
      ({|{"op":"run","tenants":[{"model":"alexnet","priority":1.5}]}|},
        {|field "priority": expected an integer|});
      ({|{"op":"run","tenants":[{"model":"alexnet","arrival_s":-1}]}|},
        {|field "arrival_s": expected a non-negative number|});
      ({|{"op":"run","tenants":[{"model":"alexnet","arrival_s":"x"}]}|},
        {|field "arrival_s": expected a number|});
      ({|{"op":"run","tenants":[{"model":"alexnet","arrival_ms":-1}]}|},
        {|field "arrival_ms": expected a non-negative number|});
      ({|{"op":"run","tenants":[{"model":"alexnet","arrival_ms":"x"}]}|},
        {|field "arrival_ms": expected a number|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"dtype":"i4"}|},
        {|unknown dtype "i4"|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"device":"stratix"}|},
        {|unknown device "stratix"|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"options":[]}|},
        {|field "options": expected an object|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"options":{"weight_slices":0}}|},
        {|field "weight_slices": expected a count >= 1|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"arbitration":"lottery"}|},
        {|field "arbitration": unknown value "lottery" (known: fair priority)|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"arbitration":1}|},
        {|field "arbitration": expected a string|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"scheduler":"fifo"}|},
        {|field "scheduler": unknown value "fifo" (known: greedy edf optimized)|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"scheduler":true}|},
        {|field "scheduler": expected a string|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"partition":"striped"}|},
        {|field "partition": unknown value "striped" (known: equal demand)|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"overcommit":0}|},
        {|field "overcommit": expected a positive number|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"overcommit":"x"}|},
        {|field "overcommit": expected a number|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"faults":5}|},
        {|field "faults": expected a fault-spec string|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"faults":"bogus:1"}|},
        {|field "faults": clause 1 ("bogus:1") at char 0: unknown clause|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"channels":9}|},
        {|field "channels": expected a count from 1 to 4 (vu9p)|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"channels":"x"}|},
        {|field "channels": expected an integer|});
      ({|{"op":"run","tenants":[{"model":"alexnet"}],"device":"zu9eg","channels":2}|},
        {|field "channels": expected a count from 1 to 1 (zu9eg)|});
      ({|{"op":"compile","model":"alexnet","deadline_ms":-5}|},
        {|field "deadline_ms": expected a positive number|}) ];
  (* [arrival_s] wins: a bad [arrival_ms] beside it is never read. *)
  match
    (parse_exn
       {|{"op":"run","tenants":[{"model":"alexnet","arrival_s":1,"arrival_ms":"x"}]}|})
      .P.request
  with
  | P.Run { P.tenants = [ tn ]; _ } ->
    Alcotest.(check (float 0.)) "arrival_s wins" 1. tn.P.arrival_s
  | _ -> Alcotest.fail "expected a one-tenant run"

(* [channels] runs from 1 to the request device's DDR bank count (4 on
   vu9p and u250, 1 on zu9eg), in compile/simulate options and on run. *)
let test_protocol_channels_bound () =
  let check_line ~ok line =
    match P.request_of_line line, ok with
    | Ok _, true -> ()
    | Ok _, false -> Alcotest.failf "expected rejection for %s" line
    | Error msg, true -> Alcotest.failf "rejected %s: %s" line msg
    | Error msg, false ->
      Alcotest.(check bool) ("names the field: " ^ msg) true
        (String.starts_with ~prefix:"field \"channels\"" msg)
  in
  List.iter
    (fun (device, banks) ->
      List.iter
        (fun (channels, ok) ->
          let dev = Printf.sprintf {|"device":"%s"|} device in
          check_line ~ok
            (Printf.sprintf
               {|{"op":"compile","model":"alexnet",%s,"options":{"channels":%d}}|}
               dev channels);
          check_line ~ok
            (Printf.sprintf
               {|{"op":"simulate","model":"alexnet",%s,"options":{"channels":%d}}|}
               dev channels);
          check_line ~ok
            (Printf.sprintf
               {|{"op":"run","tenants":[{"model":"alexnet","count":2}],%s,"channels":%d}|}
               dev channels);
          check_line ~ok
            (Printf.sprintf
               {|{"op":"run","tenants":[{"model":"alexnet"}],%s,"options":{"channels":%d}}|}
               dev channels))
        [ (banks, true); (banks + 1, false); (0, false) ])
    [ ("vu9p", 4); ("u250", 4); ("zu9eg", 1) ];
  check_line ~ok:false
    {|{"op":"run","tenants":[{"model":"alexnet","count":2}],"channels":100000}|}

let test_engine_run_op () =
  with_engine ~domains:2 (fun engine ->
      let request =
        {|{"op":"run","id":1,"tenants":[{"model":"googlenet","count":2}]}|}
      in
      let first = result_of_line (handle_line engine request) in
      Alcotest.check json_t "run ok" (Json.Bool true) (field_exn "ok" first);
      let result = field_exn "result" first in
      (match Json.to_float (field_exn "makespan_ms" result) with
      | Ok ms -> Alcotest.(check bool) "positive makespan" true (ms > 0.)
      | Error msg -> Alcotest.fail msg);
      (match Json.to_list (field_exn "tenants" result) with
      | Ok ts -> Alcotest.(check int) "two tenant reports" 2 (List.length ts)
      | Error msg -> Alcotest.fail msg);
      Alcotest.(check bool) "digest present" true
        (Json.member_opt "digest" result <> None);
      (* Runs are cached like compiles: same request answers from the
         table with an identical payload. *)
      let second = result_of_line (handle_line engine request) in
      Alcotest.check json_t "run cache hit" (Json.String "hit")
        (field_exn "cache" second);
      Alcotest.check json_t "identical payload" result
        (field_exn "result" second);
      (* A policy change is a different digest, not a stale hit. *)
      let greedy =
        result_of_line
          (handle_line engine
             {|{"op":"run","tenants":[{"model":"googlenet","count":2}],"scheduler":"greedy"}|})
      in
      Alcotest.check json_t "policy change misses" (Json.String "miss")
        (field_exn "cache" greedy))

let test_engine_deadline () =
  with_engine ~domains:1 (fun engine ->
      (* A 1 us budget on a cold ResNet-152 compile cannot be met (the
         hand-off to the worker alone takes longer): the response is a
         structured deadline error, not a stall.  (ResNet-152, not VGG-16:
         the first job on a fresh pool can hold up the awaiting thread's
         first poll for a few milliseconds, longer than a VGG-16 compile
         takes.) *)
      let timed_out =
        result_of_line
          (handle_line engine
             {|{"op":"compile","id":9,"model":"resnet152","deadline_ms":0.001}|})
      in
      Alcotest.check json_t "deadline error flagged" (Json.Bool false)
        (field_exn "ok" timed_out);
      Alcotest.check json_t "id still echoed" (Json.Int 9)
        (field_exn "id" timed_out);
      (match Json.to_str (field_exn "error" timed_out) with
      | Ok msg ->
        let mentions_deadline =
          let needle = "deadline" in
          let n = String.length needle in
          let rec scan i =
            i + n <= String.length msg
            && (String.sub msg i n = needle || scan (i + 1))
          in
          scan 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "error names the deadline (%s)" msg)
          true mentions_deadline
      | Error msg -> Alcotest.fail msg);
      (* The abandoned job still finishes on its worker and lands in the
         cache, so an unbudgeted retry succeeds. *)
      let retry =
        result_of_line
          (handle_line engine {|{"op":"compile","model":"resnet152"}|})
      in
      Alcotest.check json_t "retry succeeds" (Json.Bool true)
        (field_exn "ok" retry);
      (* A generous budget on a cache hit is comfortably met. *)
      let warm =
        result_of_line
          (handle_line engine
             {|{"op":"compile","model":"resnet152","deadline_ms":60000}|})
      in
      Alcotest.check json_t "warm hit within budget" (Json.Bool true)
        (field_exn "ok" warm))

let test_pool_await_within () =
  let pool = Lcmm.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Lcmm.Pool.shutdown pool)
    (fun () ->
      let slow = Lcmm.Pool.submit pool (fun () -> Unix.sleepf 0.2; 11) in
      (match Lcmm.Pool.await_within ~seconds:0.02 slow with
      | None -> ()
      | Some _ -> Alcotest.fail "expected a timeout");
      (* The job was not cancelled: a blocking await still collects it. *)
      (match Lcmm.Pool.await slow with
      | Ok n -> Alcotest.(check int) "late result intact" 11 n
      | Error e -> Alcotest.failf "await failed: %s" (Printexc.to_string e));
      (* A settled future answers immediately, budget or not. *)
      match Lcmm.Pool.await_within ~seconds:0.001 slow with
      | Some (Ok 11) -> ()
      | _ -> Alcotest.fail "settled future should answer")

(* --- protocol fuzzing: no input may crash the decoder or the engine --- *)

let test_protocol_fuzz () =
  let st = Random.State.make [| 0x5eed; 7 |] in
  let valid = {|{"op":"compile","id":1,"model":"alexnet","dtype":"i16"}|} in
  let charset = {|{}[]":,x0 -.eop"compile"simulate"truenullNaN\|} in
  let random_garbage () =
    String.init (Random.State.int st 64) (fun _ ->
        charset.[Random.State.int st (String.length charset)])
  in
  let mutate line =
    match Random.State.int st 6 with
    | 0 ->
      (* Truncation: a connection dropped mid-line. *)
      String.sub line 0 (Random.State.int st (String.length line))
    | 1 ->
      (* One corrupted byte. *)
      let b = Bytes.of_string line in
      Bytes.set b (Random.State.int st (Bytes.length b))
        charset.[Random.State.int st (String.length charset)];
      Bytes.to_string b
    | 2 -> random_garbage ()
    | 3 ->
      (* Structurally valid JSON, protocol-hostile fields. *)
      Printf.sprintf {|{"op":%s,"model":%s,"dtype":%s,"images":%d}|}
        (List.nth [ {|"compile"|}; {|"simulate"|}; "17"; "null"; {|["batch"]|} ]
           (Random.State.int st 5))
        (List.nth [ {|"alexnet"|}; {|"no-such-model"|}; "42"; "{}" ]
           (Random.State.int st 4))
        (List.nth [ {|"i16"|}; {|"bogus"|}; "[]" ] (Random.State.int st 3))
        (Random.State.int st 1000 - 500)
    | 4 ->
      (* Deep nesting. *)
      let depth = 1 + Random.State.int st 2000 in
      String.make depth '[' ^ "1" ^ String.make depth ']'
    | _ ->
      (* A malformed inline graph. *)
      Printf.sprintf
        {|{"op":"compile","dtype":"i16","graph":{"format":"lcmm-graph","version":1,"nodes":[{"id":%d,"name":"x","op":{"kind":"conv","out_channels":%d},"preds":[%d]}]}}|}
        (Random.State.int st 3 - 1)
        (Random.State.int st 64 - 8)
        (Random.State.int st 5 - 2)
  in
  with_engine ~domains:1 (fun engine ->
      let check_line line =
        match handle_line engine line with
        | resp ->
          Alcotest.(check bool) "newline-terminated" true
            (String.length resp > 0 && resp.[String.length resp - 1] = '\n');
          (match Json.of_string (String.trim resp) with
          | Ok _ -> ()
          | Error msg ->
            Alcotest.failf "unparseable response (%s) for input %S" msg line)
        | exception e ->
          Alcotest.failf "handle_line raised %s on %S" (Printexc.to_string e)
            line
      in
      for _ = 1 to 400 do
        check_line (mutate valid)
      done;
      (* An oversized line is refused while it is read, without being
         kept or parsed, and the connection goes on serving. *)
      let oversized =
        "{\"op\":\"compile\"," ^ String.make (8 * 1024 * 1024) ' ' ^ "}"
      in
      match serve_input engine (oversized ^ "\n" ^ valid ^ "\n") with
      | [ refused; answered ] ->
        let resp = result_of_line refused in
        Alcotest.check json_t "oversized is an error" (Json.Bool false)
          (field_exn "ok" resp);
        Alcotest.check json_t "the bound's message"
          (Json.String "request exceeds 8388608 bytes")
          (field_exn "error" resp);
        (* And the engine still answers real requests afterwards. *)
        Alcotest.check json_t "engine survives the fuzz" (Json.Bool true)
          (field_exn "ok" (result_of_line answered))
      | replies ->
        Alcotest.failf "expected 2 replies, got %d" (List.length replies))

(* --- supervision, circuit breaking and cache quarantine --- *)

let contains needle msg =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length msg && (String.sub msg i n = needle || scan (i + 1))
  in
  scan 0

let test_pool_crash_restart () =
  let pool = Lcmm.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Lcmm.Pool.shutdown pool)
    (fun () ->
      (* A crash-class exception still answers the caller (no hang)... *)
      (match
         Lcmm.Pool.await
           (Lcmm.Pool.submit pool (fun () ->
                raise (Lcmm.Pool.Worker_crash "simulated OOM")))
       with
      | Error (Lcmm.Pool.Worker_crash msg) ->
        Alcotest.(check string) "crash reason carried" "simulated OOM" msg
      | Error e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "expected a crash");
      (* ...then unwinds the worker loop, which the supervisor restarts:
         the next job is answered by the reborn worker. *)
      Alcotest.(check int) "pool still serves" 9 (Lcmm.Pool.run pool (fun () -> 9));
      Alcotest.(check int) "restart counted" 1 (Lcmm.Pool.restarts pool);
      (* Stack_overflow is crash-class too, and survivable the same way. *)
      (match Lcmm.Pool.await (Lcmm.Pool.submit pool (fun () -> raise Stack_overflow)) with
      | Error Stack_overflow -> ()
      | Error e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | Ok () -> Alcotest.fail "expected Stack_overflow");
      Alcotest.(check int) "still serving" 4 (Lcmm.Pool.run pool (fun () -> 4));
      Alcotest.(check int) "second restart" 2 (Lcmm.Pool.restarts pool))

(* The breaker state machine on a fake clock: closed -> open at the
   threshold -> exactly one probe once the cooldown is over -> re-open
   on a failed probe -> close on a successful one. *)
let test_breaker_state_machine () =
  let module B = Svc.Breaker in
  let b = B.create ~threshold:2 ~cooldown_s:1. in
  let admission = function
    | B.Pass -> "pass"
    | B.Probe -> "probe"
    | B.Shed_open left -> Printf.sprintf "open %.2f" left
    | B.Shed_probing -> "probing"
  in
  let admit now = admission (B.admit b ~now) in
  let state () =
    match B.state b with
    | `Closed -> "closed"
    | `Open -> "open"
    | `Half_open -> "half_open"
  in
  Alcotest.(check string) "closed admits" "pass" (admit 0.);
  B.record b ~now:0. ~failed:true;
  Alcotest.(check string) "one failure stays closed" "closed" (state ());
  B.record b ~now:10. ~failed:true;
  Alcotest.(check string) "threshold trips" "open" (state ());
  Alcotest.(check int) "one trip" 1 (B.trips b);
  Alcotest.(check string) "open sheds with time left" "open 0.75"
    (admit 10.25);
  Alcotest.(check (float 1e-9)) "cooldown left" 0.5
    (B.cooldown_left b ~now:10.5);
  Alcotest.(check (float 0.)) "cooldown over" 0. (B.cooldown_left b ~now:11.);
  Alcotest.(check string) "first call after cooldown probes" "probe"
    (admit 11.);
  Alcotest.(check string) "second concurrent call is shed" "probing"
    (admit 11.1);
  Alcotest.(check string) "half-open" "half_open" (state ());
  B.record b ~now:12. ~failed:true;
  Alcotest.(check string) "failed probe re-opens" "open" (state ());
  Alcotest.(check int) "second trip" 2 (B.trips b);
  Alcotest.(check string) "fresh cooldown" "open 0.50" (admit 12.5);
  Alcotest.(check string) "next probe" "probe" (admit 13.);
  B.record b ~now:13.5 ~failed:false;
  Alcotest.(check string) "successful probe closes" "closed" (state ());
  Alcotest.(check int) "streak cleared" 0 (B.failures b);
  Alcotest.(check int) "sheds counted" 3 (B.shed b);
  Alcotest.(check string) "closed admits again" "pass" (admit 13.6);
  Alcotest.check_raises "threshold below 1"
    (Invalid_argument "Breaker.create: threshold must be >= 1") (fun () ->
      ignore (B.create ~threshold:0 ~cooldown_s:1.))

let test_engine_circuit_breaker () =
  let pool = Lcmm.Pool.create ~domains:1 () in
  let engine =
    Svc.Engine.create ~pool ~breaker_threshold:2 ~breaker_cooldown_ms:400. ()
  in
  Fun.protect
    ~finally:(fun () -> Svc.Engine.shutdown engine)
    (fun () ->
      (* Distinct option digests force cold compiles; a 1 us budget on a
         cold ResNet-152 compile is a guaranteed deadline miss — a counted
         failure.  (ResNet-152, not a smaller model: a warm process can
         plan VGG-16 inside 1 ms, and the first job on a fresh pool can
         hold up the awaiting thread's first poll for a few milliseconds;
         either would dodge the miss.) *)
      let miss slices =
        Printf.sprintf
          {|{"op":"compile","model":"resnet152","deadline_ms":0.001,"options":{"weight_slices":%d}}|}
          slices
      in
      let r1 = result_of_line (handle_line engine (miss 2)) in
      Alcotest.check json_t "first miss errors" (Json.Bool false)
        (field_exn "ok" r1);
      Alcotest.check json_t "deadline kind" (Json.String "deadline")
        (field_exn "kind" r1);
      let r2 = result_of_line (handle_line engine (miss 3)) in
      Alcotest.check json_t "second miss errors" (Json.Bool false)
        (field_exn "ok" r2);
      (* Threshold reached: the compile circuit is open and sheds without
         touching the pool. *)
      let shed =
        result_of_line (handle_line engine {|{"op":"compile","model":"alexnet"}|})
      in
      Alcotest.check json_t "shed flagged" (Json.Bool false) (field_exn "ok" shed);
      Alcotest.check json_t "unavailable kind" (Json.String "unavailable")
        (field_exn "kind" shed);
      (match Json.to_str (field_exn "error" shed) with
      | Ok msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the open circuit (%s)" msg)
          true
          (contains "circuit open" msg)
      | Error msg -> Alcotest.fail msg);
      (* stats is never shed, and reports the open breaker. *)
      let stats = result_of_line (handle_line engine {|{"op":"stats"}|}) in
      Alcotest.check json_t "stats answers" (Json.Bool true) (field_exn "ok" stats);
      let compile_breaker =
        field_exn "compile" (field_exn "breakers" (field_exn "result" stats))
      in
      Alcotest.check json_t "breaker open" (Json.String "open")
        (field_exn "state" compile_breaker);
      Alcotest.check json_t "one trip" (Json.Int 1)
        (field_exn "trips" compile_breaker);
      (* Each op has its own circuit: models still answers. *)
      let models = result_of_line (handle_line engine {|{"op":"models"}|}) in
      Alcotest.check json_t "other ops unaffected" (Json.Bool true)
        (field_exn "ok" models);
      (* After the cooldown a probe is admitted; success closes the
         circuit and normal service resumes. *)
      Unix.sleepf 0.6;
      let probe =
        result_of_line (handle_line engine {|{"op":"compile","model":"alexnet"}|})
      in
      Alcotest.check json_t "probe succeeds" (Json.Bool true)
        (field_exn "ok" probe);
      let after =
        result_of_line (handle_line engine {|{"op":"compile","model":"alexnet"}|})
      in
      Alcotest.check json_t "service recovered" (Json.Bool true)
        (field_exn "ok" after);
      let stats = result_of_line (handle_line engine {|{"op":"stats"}|}) in
      let compile_breaker =
        field_exn "compile" (field_exn "breakers" (field_exn "result" stats))
      in
      Alcotest.check json_t "breaker closed again" (Json.String "closed")
        (field_exn "state" compile_breaker))

let replace_once needle repl s =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "needle %S not found" needle
    else if String.sub s i n = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ repl ^ String.sub s (i + n) (String.length s - i - n)

let test_cache_quarantine () =
  let dir = Filename.temp_file "lcmm_cacheq" "" in
  Sys.remove dir;
  let payload = Json.Obj [ ("x", Json.Int 31337) ] in
  let c1 = Svc.Plan_cache.create ~persist_dir:dir () in
  List.iter (fun k -> Svc.Plan_cache.put c1 k payload)
    [ "aaaa01"; "bbbb02"; "cccc03" ];
  let path name = Filename.concat dir (name ^ ".json") in
  let slurp name = In_channel.with_open_bin (path name) In_channel.input_all in
  let spew name s =
    Out_channel.with_open_bin (path name) (fun oc ->
        Out_channel.output_string oc s)
  in
  (* A connection or machine dying mid-write leaves a truncated file;
     a disk or editor mishap flips payload bytes under an intact sha. *)
  let whole = slurp "aaaa01" in
  spew "aaaa01" (String.sub whole 0 (String.length whole / 2));
  spew "bbbb02" (replace_once "31337" "31338" (slurp "bbbb02"));
  let c2 = Svc.Plan_cache.create ~persist_dir:dir () in
  Alcotest.(check bool) "truncated is a miss" true
    (Svc.Plan_cache.find c2 "aaaa01" = None);
  Alcotest.(check bool) "bit-flipped is a miss" true
    (Svc.Plan_cache.find c2 "bbbb02" = None);
  (match Svc.Plan_cache.find c2 "cccc03" with
  | Some v -> Alcotest.check json_t "intact sibling still loads" payload v
  | None -> Alcotest.fail "intact entry should rewarm");
  let s = Svc.Plan_cache.stats c2 in
  Alcotest.(check int) "both quarantined" 2 s.Svc.Plan_cache.quarantined;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " moved to .corrupt") true
        (Sys.file_exists (path name ^ ".corrupt"));
      Alcotest.(check bool) (name ^ " original gone") true
        (not (Sys.file_exists (path name))))
    [ "aaaa01"; "bbbb02" ];
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* --- metrics percentiles --- *)

let test_percentile_estimator () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "median interpolates" 50.5
    (Svc.Metrics.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p0 is min" 1. (Svc.Metrics.percentile xs 0.);
  Alcotest.(check (float 1e-9)) "p100 is max" 100.
    (Svc.Metrics.percentile xs 1.);
  Alcotest.(check (float 1e-9)) "p99 near the top" 99.01
    (Svc.Metrics.percentile xs 0.99);
  (* Input order must not matter (the helper sorts a copy). *)
  let shuffled = [| 3.; 1.; 2. |] in
  Alcotest.(check (float 1e-9)) "unsorted input" 2.
    (Svc.Metrics.percentile shuffled 0.5);
  Alcotest.check json_t "input not mutated"
    (Json.List [ Json.Float 3.; Json.Float 1.; Json.Float 2. ])
    (Json.List (Array.to_list (Array.map (fun f -> Json.Float f) shuffled)));
  Alcotest.(check (float 1e-9)) "singleton" 7.
    (Svc.Metrics.percentile [| 7. |] 0.99);
  (* Singleton: every quantile, including the extremes and out-of-range
     requests, reports the only value. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "singleton at q=%g" q)
        7.
        (Svc.Metrics.percentile [| 7. |] q))
    [ 0.; 0.5; 1.; -1.; 2. ];
  (* Exact order statistics at the endpoints: no interpolation
     arithmetic may touch them (bit-equality, not epsilon). *)
  let xs = [| 5.; -3.; 11.; 0.25 |] in
  Alcotest.(check (float 0.)) "p0 is the exact minimum" (-3.)
    (Svc.Metrics.percentile xs 0.0);
  Alcotest.(check (float 0.)) "p100 is the exact maximum" 11.
    (Svc.Metrics.percentile xs 1.0);
  (* Out-of-range and NaN quantiles clamp instead of indexing garbage. *)
  Alcotest.(check (float 0.)) "q < 0 clamps to min" (-3.)
    (Svc.Metrics.percentile xs (-0.5));
  Alcotest.(check (float 0.)) "q > 1 clamps to max" 11.
    (Svc.Metrics.percentile xs 1.5);
  Alcotest.(check (float 0.)) "NaN q treated as 0" (-3.)
    (Svc.Metrics.percentile xs Float.nan);
  (* Empty sample: 0, never NaN — the value lands in JSON stats. *)
  Alcotest.(check (float 0.)) "empty is zero" 0.
    (Svc.Metrics.percentile [||] 0.5);
  Alcotest.(check bool) "empty is NaN-free" false
    (Float.is_nan (Svc.Metrics.percentile [||] 0.999));
  (* An empty reservoir's percentile goes through the same path. *)
  let empty = Svc.Metrics.Reservoir.create ~capacity:4 () in
  Alcotest.(check (float 0.)) "empty reservoir is zero" 0.
    (Svc.Metrics.Reservoir.percentile empty 0.99)

let test_reservoir_sampling () =
  let r = Svc.Metrics.Reservoir.create ~capacity:4 () in
  List.iter (Svc.Metrics.Reservoir.add r) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "seen" 4 (Svc.Metrics.Reservoir.count r);
  Alcotest.(check (float 1e-9)) "exact while under capacity" 2.5
    (Svc.Metrics.Reservoir.percentile r 0.5);
  for i = 5 to 1000 do
    Svc.Metrics.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check int) "count tracks the stream" 1000
    (Svc.Metrics.Reservoir.count r);
  Alcotest.(check int) "held sample stays bounded" 4
    (Array.length (Svc.Metrics.Reservoir.sample r));
  (* Seeded PRNG: two reservoirs fed the same stream agree exactly. *)
  let a = Svc.Metrics.Reservoir.create ~capacity:8 ~seed:7 () in
  let b = Svc.Metrics.Reservoir.create ~capacity:8 ~seed:7 () in
  for i = 1 to 500 do
    Svc.Metrics.Reservoir.add a (float_of_int i);
    Svc.Metrics.Reservoir.add b (float_of_int i)
  done;
  Alcotest.(check (array (float 1e-9))) "deterministic draws"
    (Svc.Metrics.Reservoir.sample a)
    (Svc.Metrics.Reservoir.sample b)

let test_stats_report_percentiles () =
  with_engine ~domains:1 (fun engine ->
      ignore (handle_line engine {|{"op":"models"}|});
      let stats = result_of_line (handle_line engine {|{"op":"stats"}|}) in
      let models_op =
        field_exn "models"
          (field_exn "by_op" (field_exn "metrics" (field_exn "result" stats)))
      in
      List.iter
        (fun key ->
          match field_exn key models_op with
          | Json.Float v -> Alcotest.(check bool) (key ^ " finite") true (v >= 0.)
          | v -> Alcotest.failf "%s not a float: %s" key (Json.to_string v))
        [ "p50_ms"; "p99_ms"; "p999_ms" ])

(* --- cache_get / cache_put (the tier's peer-fill plane) --- *)

let test_engine_cache_ops () =
  with_engine ~domains:1 (fun engine ->
      let digest = String.make 32 'a' in
      let missing =
        result_of_line
          (handle_line engine
             (Printf.sprintf {|{"op":"cache_get","digest":"%s"}|} digest))
      in
      Alcotest.check json_t "miss is an error" (Json.Bool false)
        (field_exn "ok" missing);
      Alcotest.check json_t "stable miss message"
        (Json.String ("not cached: " ^ digest))
        (field_exn "error" missing);
      let put =
        result_of_line
          (handle_line engine
             (Printf.sprintf
                {|{"op":"cache_put","digest":"%s","payload":{"plan":42}}|}
                digest))
      in
      Alcotest.check json_t "stored" (Json.Bool true)
        (field_exn "stored" (field_exn "result" put));
      let got =
        result_of_line
          (handle_line engine
             (Printf.sprintf {|{"op":"cache_get","digest":"%s"}|} digest))
      in
      Alcotest.check json_t "round-trips" (Json.Obj [ ("plan", Json.Int 42) ])
        (field_exn "result" got);
      Alcotest.check json_t "counts as a cache hit" (Json.String "hit")
        (field_exn "cache" got);
      (* Digests are validated: not hex, not empty, not unbounded. *)
      List.iter
        (fun bad ->
          let resp =
            result_of_line
              (handle_line engine
                 (Printf.sprintf {|{"op":"cache_get","digest":%s}|} bad))
          in
          Alcotest.check json_t ("rejected: " ^ bad) (Json.Bool false)
            (field_exn "ok" resp))
        [ {|"XYZ"|}; {|""|}; {|123|};
          Printf.sprintf {|"%s"|} (String.make 200 'a') ])

(* --- envelope re-encoding (the tier's forwarding path) --- *)

let parse_line_exn line =
  match P.request_of_line line with
  | Ok env -> env
  | Error msg -> Alcotest.failf "parse: %s" msg

let test_envelope_reencode_digest_stable () =
  let lines =
    [ {|{"op":"compile","id":7,"model":"alexnet","dtype":"i8","options":{"weight_slices":3,"coloring":"first_fit"}}|};
      {|{"op":"simulate","model":"squeezenet","images":4,"deadline_ms":5000}|};
      {|{"op":"run","tenants":[{"model":"alexnet","count":2,"priority":1,"arrival_ms":123.456789012345678},{"model":"squeezenet"}],"scheduler":"edf","overcommit":1.25}|};
      {|{"op":"run","tenants":[{"model":"alexnet","count":2,"priority":1,"arrival_ms":1.5},{"model":"squeezenet","count":3,"priority":2,"arrival_s":0.0025}],"dtype":"i8","device":"u250","options":{"weight_slices":2,"coloring":"first_fit","fusion":true},"arbitration":"priority","scheduler":"optimized","partition":"demand","overcommit":2.5,"channels":2,"faults":"seed=42,stall:0.1:0.3,fail:0.05"}|};
      {|{"op":"cache_get","digest":"abcdef0123456789"}|} ]
  in
  List.iter
    (fun line ->
      let env = parse_line_exn line in
      let reencoded = Json.to_string (P.envelope_to_json env) in
      let env2 = parse_line_exn reencoded in
      let digest_of (e : P.envelope) =
        match Svc.Engine.route_digest e.P.request with
        | Ok (Some d) -> d
        | Ok None -> Alcotest.failf "no digest for %s" line
        | Error msg -> Alcotest.failf "route_digest: %s" msg
      in
      Alcotest.(check string)
        ("digest survives re-encoding: " ^ line)
        (digest_of env) (digest_of env2);
      Alcotest.check json_t "id survives"
        (match env.P.id with Some v -> v | None -> Json.Null)
        (match env2.P.id with Some v -> v | None -> Json.Null);
      (* And the encoding is a fixed point: encode(parse(encode)) =
         encode. *)
      Alcotest.(check string) "fixed point" reencoded
        (Json.to_string (P.envelope_to_json env2)))
    lines

let test_route_digest_matches_engine () =
  with_engine ~domains:1 (fun engine ->
      let line = {|{"op":"compile","model":"alexnet","dtype":"i8"}|} in
      let resp = result_of_line (handle_line engine line) in
      let served =
        match field_exn "digest" (field_exn "result" resp) with
        | Json.String d -> d
        | v -> Alcotest.failf "digest not a string: %s" (Json.to_string v)
      in
      match Svc.Engine.route_digest (parse_line_exn line).P.request with
      | Ok (Some routed) ->
        Alcotest.(check string) "router and engine agree" served routed
      | Ok None | Error _ -> Alcotest.fail "expected a digest")

(* Digests recorded before zoo models were resolved once per process:
   the memoized bytes and the scratch-buffer hash must reproduce them
   exactly, or every persisted cache entry and tier route goes stale. *)
let inline_chain_json () =
  Json.to_string (Dnn_serial.Codec.graph_to_json (Helpers.chain ()))

let served_digest engine line =
  let resp = result_of_line (handle_line ~timing:false engine line) in
  match Json.member_opt "digest" (field_exn "result" resp) with
  | Some (Json.String d) -> d
  | _ -> Alcotest.failf "no digest in reply to %s" line

let routed_digest line =
  match Svc.Engine.route_digest (parse_line_exn line).P.request with
  | Ok (Some d) -> d
  | Ok None -> Alcotest.failf "no route digest for %s" line
  | Error msg -> Alcotest.failf "route_digest: %s" msg

let pinned_digest_lines () =
  [ ( {|{"op":"compile","model":"alexnet","dtype":"i16"}|},
      "982a769aebf2a97cb12e0e3cb7ec488c" );
    ( {|{"op":"simulate","model":"alexnet","dtype":"i16"}|},
      "46b7152cb09b86fea582a06af3dabe4a" );
    ( {|{"op":"compile","model":"googlenet","dtype":"i16"}|},
      "3e305e4d79e109a19d4990a53912b196" );
    ( {|{"op":"simulate","model":"resnet152","dtype":"i8","images":4}|},
      "e9ba2eaabd068c2f80bc9ff186726ee8" );
    ( {|{"op":"compile","graph":|} ^ inline_chain_json () ^ "}",
      "5e87bc434b1eef19c86bc14f8ff7dc76" );
    (* Every planner option off its default. *)
    ( {|{"op":"compile","model":"alexnet","dtype":"i8","options":{"feature_reuse":false,"weight_prefetch":false,"buffer_splitting":false,"buffer_sharing":false,"memory_bound_only":false,"compensation":"exact","coloring":"first_fit","capacity_override":1048576,"weight_slices":2,"fusion":true,"channels":2}}|},
      "11c9fd7cde9658a2876fd96b805dadcb" );
    (* Every run and tenant field set. *)
    ( {|{"op":"run","tenants":[{"model":"alexnet","count":2,"priority":1,"arrival_ms":1.5},{"model":"squeezenet","count":3,"priority":2,"arrival_s":0.0025}],"dtype":"i8","device":"u250","options":{"weight_slices":2,"coloring":"first_fit","fusion":true},"arbitration":"priority","scheduler":"optimized","partition":"demand","overcommit":2.5,"channels":2,"faults":"seed=42,stall:0.1:0.3,fail:0.05"}|},
      "bcc760d3a8abdc9f9ab136472b7e426d" ) ]

let test_pinned_digests () =
  with_engine ~domains:1 (fun engine ->
      List.iter
        (fun (line, pinned) ->
          Alcotest.(check string) ("route " ^ line) pinned (routed_digest line);
          Alcotest.(check string) ("served " ^ line) pinned
            (served_digest engine line))
        (pinned_digest_lines ()))

(* Every zoo model, both compute ops, both integer dtypes: the reply's
   digest, the router's and one hashed from a freshly built graph all
   agree. *)
let test_zoo_digests_agree () =
  with_engine ~domains:2 (fun engine ->
      List.iter
        (fun (e : Models.Zoo.entry) ->
          List.iter
            (fun (op, extra) ->
              List.iter
                (fun dtype ->
                  let line =
                    Printf.sprintf {|{"op":"%s","model":"%s","dtype":"%s"}|}
                      op e.Models.Zoo.model_name
                      (Tensor.Dtype.to_string dtype)
                  in
                  let fresh =
                    Svc.Cache_key.request_digest ~extra ~dtype
                      ~device:Fpga.Device.vu9p ~options:F.default_options
                      (e.Models.Zoo.build ())
                  in
                  Alcotest.(check string) ("route " ^ line) fresh
                    (routed_digest line);
                  Alcotest.(check string) ("served " ^ line) fresh
                    (served_digest engine line))
                [ Tensor.Dtype.I16; Tensor.Dtype.I8 ])
            [ ("compile", [ "compile" ]); ("simulate", [ "simulate"; "single" ]) ])
        Models.Zoo.all)

let test_inline_run_digest () =
  with_engine ~domains:1 (fun engine ->
      let line =
        {|{"op":"run","tenants":[{"graph":|} ^ inline_chain_json ()
        ^ {|,"count":2}]}|}
      in
      let pinned = "3cada45feeef39291feb2e7d475dbd8d" in
      Alcotest.(check string) "route" pinned (routed_digest line);
      (match (parse_line_exn line).P.request with
      | P.Run spec ->
        let module R = Lcmm_runtime in
        Alcotest.(check string) "hashed from a fresh graph" pinned
          (Svc.Cache_key.run_digest_of_canonical
             ~extra:
               [ "run"; R.Arbiter.to_string spec.P.arbitration;
                 R.Scheduler.to_string spec.P.scheduler;
                 R.Partition.to_string spec.P.sram_partition;
                 Printf.sprintf "%.17g" spec.P.overcommit ]
             ~dtype:spec.P.run_dtype ~device:spec.P.run_device
             ~options:spec.P.run_options
             [ ( Svc.Cache_key.canonical (Helpers.chain ()),
                 "count:2|prio:0|arr:0" ) ])
      | _ -> Alcotest.fail "expected a run request");
      let result =
        field_exn "result"
          (result_of_line (handle_line ~timing:false engine line))
      in
      Alcotest.check json_t "served digest" (Json.String pinned)
        (field_exn "digest" result);
      match Json.to_list (field_exn "tenants" result) with
      | Ok tenants ->
        Alcotest.(check (list string)) "content-derived model keys"
          [ "inline:9d895c7c"; "inline:9d895c7c" ]
          (List.map
             (fun t ->
               match field_exn "model" t with
               | Json.String m -> m
               | v -> Alcotest.failf "model: %s" (Json.to_string v))
             tenants)
      | Error msg -> Alcotest.fail msg)

let concat_digest parts =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* The scratch-buffer hash against the concatenation it replaces,
   around every boundary: no parts, empty parts, and parts that outgrow
   the shared buffer (before and after it has grown). *)
let test_hash_edge_cases () =
  let big = String.make (300 * 1024) 'b' and mid = String.make 40_000 'm' in
  List.iter
    (fun parts ->
      Alcotest.(check string)
        (Printf.sprintf "%d part(s), %d bytes" (List.length parts)
           (List.fold_left (fun n p -> n + String.length p) 0 parts))
        (concat_digest parts) (Svc.Cache_key.hash parts))
    [ []; [ "" ]; [ ""; "" ]; [ ""; "a" ]; [ "a"; "" ]; [ "abc" ];
      [ "a"; "bc"; "" ; "d" ]; [ mid ]; [ "x"; mid; "y" ]; [ big ];
      [ "short" ]; [ big; mid; "" ]; [ mid; "tail" ]; [ "" ] ]

(* Two domains of several threads each resolve zoo models, digest
   requests and hash odd-sized parts at once; every answer must equal
   the sequential one. *)
let test_concurrent_digests () =
  let lines =
    List.map fst (pinned_digest_lines ())
    @ List.map
        (fun (e : Models.Zoo.entry) ->
          Printf.sprintf {|{"op":"compile","model":"%s","dtype":"i8"}|}
            e.Models.Zoo.model_name)
        Models.Zoo.all
  in
  let part_sets =
    List.init 12 (fun i ->
        [ String.make (i * 37_000) (Char.chr (65 + i)); string_of_int i; "" ])
  in
  let answers () =
    List.map routed_digest lines @ List.map Svc.Cache_key.hash part_sets
  in
  let expected =
    List.map routed_digest lines @ List.map concat_digest part_sets
  in
  let threads_per_domain = 3 and rounds = 5 in
  let domain () =
    let results = Array.make threads_per_domain [] in
    let threads =
      List.init threads_per_domain (fun k ->
          Thread.create
            (fun () ->
              results.(k) <- List.init rounds (fun _ -> answers ()))
            ())
    in
    List.iter Thread.join threads;
    List.concat (Array.to_list results)
  in
  let domains = List.init 2 (fun _ -> Domain.spawn domain) in
  List.iteri
    (fun d dom ->
      let got = Domain.join dom in
      Alcotest.(check int) "every round answered"
        (threads_per_domain * rounds) (List.length got);
      List.iter
        (Alcotest.(check (list string))
           (Printf.sprintf "domain %d agrees with sequential" d)
           expected)
        got)
    domains

(* Distinct planner option sets: capacity_override alone tells them
   apart, and the other fields vary so the memo key covers them too.
   Every channel count fits vu9p's four DDR banks. *)
let memo_option_sets ~base n =
  List.init n (fun i ->
      { F.default_options with
        F.capacity_override = Some ((base + i + 1) * 65536);
        weight_slices = 1 + (i mod 3);
        fusion = i mod 2 = 0;
        channels = 1 + (i mod 4);
        coloring =
          (if i mod 5 = 0 then Lcmm.Coloring.First_fit
           else Lcmm.Coloring.Min_growth) })

let memo_line ?(device = Fpga.Device.vu9p) ~op ~images model dtype options =
  Printf.sprintf
    {|{"op":"%s","model":"%s","dtype":"%s","device":"%s"%s,"options":%s}|} op
    model (Tensor.Dtype.to_string dtype) device.Fpga.Device.device_name
    (match images with None -> "" | Some n -> Printf.sprintf {|,"images":%d|} n)
    (Json.to_string (P.options_to_json options))

(* Every zoo model x {compile, simulate single, simulate 4 images} x
   {i8, i16} x 72 option sets on vu9p, plus one request per device:
   435 keys per model, past the memo's bound of 64, each asked for
   twice.  The router's digest must equal one hashed from a freshly
   built graph on both asks, and so must the key the engine files the
   reply under: a payload seeded under the fresh digest comes back as
   a hit. *)
let test_digest_memo_covers_zoo () =
  let ops =
    [ ("compile", None, [ "compile" ]);
      ("simulate", None, [ "simulate"; "single" ]);
      ("simulate", Some 4, [ "simulate"; "4" ]) ]
  in
  let option_sets = memo_option_sets ~base:0 72 in
  with_engine ~domains:1 (fun engine ->
      let check_twice ?device ~op ~images ~extra model g dtype options =
        let line = memo_line ?device ~op ~images model dtype options in
        let fresh =
          Svc.Cache_key.request_digest ~extra ~dtype
            ~device:(Option.value device ~default:Fpga.Device.vu9p)
            ~options g
        in
        let seeded = Json.Obj [ ("seeded", Json.String fresh) ] in
        Svc.Plan_cache.put (Svc.Engine.cache engine) fresh seeded;
        for ask = 1 to 2 do
          let what = Printf.sprintf "ask %d: %s" ask line in
          Alcotest.(check string) ("route " ^ what) fresh (routed_digest line);
          let reply = result_of_line (handle_line engine line) in
          Alcotest.check json_t ("hit " ^ what) (Json.String "hit")
            (field_exn "cache" reply);
          Alcotest.check json_t ("reply " ^ what) seeded
            (field_exn "result" reply)
        done
      in
      List.iter
        (fun (e : Models.Zoo.entry) ->
          let model = e.Models.Zoo.model_name in
          let g = e.Models.Zoo.build () in
          List.iter
            (fun (op, images, extra) ->
              List.iter
                (fun dtype ->
                  List.iter
                    (check_twice ~op ~images ~extra model g dtype)
                    option_sets)
                [ Tensor.Dtype.I8; Tensor.Dtype.I16 ])
            ops;
          List.iter
            (fun device ->
              check_twice ~device ~op:"compile" ~images:None
                ~extra:[ "compile" ] model g Tensor.Dtype.I16
                F.default_options)
            Fpga.Device.all)
        Models.Zoo.all)

(* Two domains of three threads each digest one model's requests at
   once, every thread with option sets of its own, so inserts race each
   other and the bound (120 keys in all).  Every answer must equal a
   digest hashed from a freshly built graph. *)
let test_digest_memo_concurrent () =
  let model = "squeezenet" and dtype = Tensor.Dtype.I16 in
  let g =
    match Models.Zoo.find model with
    | Some e -> e.Models.Zoo.build ()
    | None -> Alcotest.failf "no zoo model %s" model
  in
  let threads_per_domain = 3 and keys_per_thread = 20 in
  let work =
    Array.init (2 * threads_per_domain) (fun t ->
        List.map
          (fun options ->
            ( memo_line ~op:"compile" ~images:None model dtype options,
              Svc.Cache_key.request_digest ~extra:[ "compile" ] ~dtype
                ~device:Fpga.Device.vu9p ~options g ))
          (memo_option_sets ~base:(1000 + (t * keys_per_thread))
             keys_per_thread))
  in
  let domain d () =
    let mismatches = Array.make threads_per_domain 0 in
    let threads =
      List.init threads_per_domain (fun k ->
          Thread.create
            (fun () ->
              for _ = 1 to 3 do
                List.iter
                  (fun (line, fresh) ->
                    if routed_digest line <> fresh then
                      mismatches.(k) <- mismatches.(k) + 1)
                  work.((d * threads_per_domain) + k)
              done)
            ())
    in
    List.iter Thread.join threads;
    Array.fold_left ( + ) 0 mismatches
  in
  let domains = List.init 2 (fun d -> Domain.spawn (domain d)) in
  List.iteri
    (fun d dom ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d: digests that differ from a fresh one" d)
        0 (Domain.join dom))
    domains

(* --- the per-model stage memo --- *)

(* A compile or simulate request on a zoo model or, with [graph], on
   that model's graph shipped inline (which has no stage memo). *)
let stage_line ?(device = Fpga.Device.vu9p) ?graph ~op model dtype options =
  Json.to_string
    (Json.Obj
       [ ("op", Json.String op);
         ( match graph with
         | None -> ("model", Json.String model)
         | Some g -> ("graph", Dnn_serial.Codec.graph_to_json g) );
         ("dtype", Json.String (Tensor.Dtype.to_string dtype));
         ("device", Json.String device.Fpga.Device.device_name);
         ("options", P.options_to_json options) ])

(* An engine's stage counters from its stats: DSE sweeps, prepares and
   memo hits. *)
let stage_counts engine =
  let stats = result_of_line (handle_line engine {|{"op":"stats"}|}) in
  let stages = field_exn "stages" (field_exn "result" stats) in
  let count k =
    match field_exn k stages with
    | Json.Int n -> n
    | _ -> Alcotest.failf "stages.%s is not an int" k
  in
  (count "dse_runs", count "prepares", count "memo_hits")

let zoo_graph model =
  match Models.Zoo.find model with
  | Some e -> e.Models.Zoo.build ()
  | None -> Alcotest.failf "no zoo model %s" model

(* The canonical rendering a request gets with no stage memo: the same
   request on the model's graph shipped inline, on a fresh engine, with
   the two result fields that name the target (model, digest) set to
   the zoo request's. *)
let cold_render ?device ~op model dtype options =
  let line = stage_line ?device ~op model dtype options in
  let inline =
    stage_line ?device ~graph:(zoo_graph model) ~op model dtype options
  in
  let digest = routed_digest line in
  let reply =
    with_engine ~domains:1 (fun e ->
        result_of_line (handle_line ~timing:false e inline))
  in
  let named = function
    | "model", _ -> ("model", Json.String model)
    | "digest", _ -> ("digest", Json.String digest)
    | kv -> kv
  in
  match reply with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.map
            (function
              | "result", Json.Obj r -> ("result", Json.Obj (List.map named r))
              | kv -> kv)
            fields))
  | _ -> Alcotest.failf "reply to the inline %s is not an object" op

let render engine line =
  Json.to_string (result_of_line (handle_line ~timing:false engine line))

(* A reply built from memoized stages renders byte-identical to one built
   from fresh stages.  Two prepare keys of resnext50 (other tests
   compute it only at the default options, which keep no stage), each
   first asked on engine A (memo cold: A prepares both) and then on
   engine B with an empty plan cache (memo warm: B neither sweeps nor
   prepares).  B also asks each key at capacities,
   fusion settings, channel counts and ops the stage was not prepared
   under; those replies must equal the inline graph's, which never
   memoizes. *)
let test_stage_memo_warm_equals_cold () =
  let model = "resnext50" in
  let keyed =
    [ ( Tensor.Dtype.I16,
        { F.default_options with
          F.weight_slices = 5;
          capacity_override = Some (1 lsl 21) } );
      ( Tensor.Dtype.F32,
        { F.default_options with
          F.weight_slices = 7;
          memory_bound_only = false;
          fusion = true } ) ]
  in
  let first =
    List.mapi
      (fun i (dtype, options) ->
        let op = if i mod 2 = 0 then "compile" else "simulate" in
        (stage_line ~op model dtype options, (op, dtype, options)))
      keyed
  in
  let cold =
    with_engine ~domains:1 (fun a ->
        let replies = List.map (fun (line, _) -> render a line) first in
        let _, prepares, _ = stage_counts a in
        Alcotest.(check int) "A prepares every key" (List.length keyed) prepares;
        replies)
  in
  with_engine ~domains:1 (fun b ->
      List.iter2
        (fun (line, _) want ->
          Alcotest.(check string) ("warm = cold: " ^ line) want (render b line))
        first cold;
      Alcotest.(check (triple int int int)) "B takes every stage from the memo"
        (0, 0, List.length keyed) (stage_counts b);
      (* B ran no prepare pass, so its clock charges none. *)
      let pass_us k =
        let stats = result_of_line (handle_line b {|{"op":"stats"}|}) in
        let times = field_exn "pass_times_us" (field_exn "result" stats) in
        match Json.to_float (field_exn k times) with
        | Ok us -> us
        | Error msg -> Alcotest.failf "pass_times_us.%s: %s" k msg
      in
      List.iter
        (fun k -> Alcotest.(check (float 0.)) ("B " ^ k) 0. (pass_us k))
        [ "profile_us"; "liveness_us"; "prefetch_us" ];
      Alcotest.(check bool) "B dnnk_us > 0" true (pass_us "dnnk_us" > 0.);
      List.iter
        (fun (_, (op, dtype, options)) ->
          List.iter
            (fun (op, options) ->
              let line = stage_line ~op model dtype options in
              Alcotest.(check string) ("warm = inline: " ^ line)
                (cold_render ~op model dtype options)
                (render b line))
            [ (op, { options with F.capacity_override = Some (1 lsl 20) });
              ( (if op = "compile" then "simulate" else "compile"),
                { options with
                  F.capacity_override = Some (3 lsl 19);
                  fusion = true;
                  channels = 3;
                  coloring = Lcmm.Coloring.First_fit } ) ])
        first;
      let dse_runs, prepares, _ = stage_counts b in
      Alcotest.(check (pair int int)) "still no sweep or prepare on B" (0, 0)
        (dse_runs, prepares);
      (* A request at the defaults of every option prepare does not read
         keeps no stage: asked on A and again on B, both prepare it. *)
      let plain = { F.default_options with F.weight_slices = 9 } in
      let line = stage_line ~op:"compile" model Tensor.Dtype.I16 plain in
      with_engine ~domains:1 (fun a -> ignore (render a line));
      Alcotest.(check string) ("plain, warm designs: " ^ line)
        (cold_render ~op:"compile" model Tensor.Dtype.I16 plain)
        (render b line);
      Alcotest.(check (triple int int int)) "a plain request prepares again"
        (0, 1, (3 * List.length keyed) + 1) (stage_counts b))

(* Hostile option sets cannot grow a model's memo: 72 prepare keys of
   mobilenet_v2 (weight_slices 1-8 x 3 devices x 3 dtypes), asked twice
   at different capacities so the plan cache never answers.  The
   second round finds at most the memo's bound (4) of them, prepares
   the rest again and sweeps nothing (the 9 design keys fit their
   bound), and every reply of both rounds carries the comparison
   [compare_designs] makes. *)
let test_stage_memo_bounded () =
  let model = "mobilenet_v2" in
  let g = zoo_graph model in
  let keys =
    List.concat_map
      (fun device ->
        List.concat_map
          (fun dtype ->
            List.init 8 (fun i -> (device, dtype, i + 1)))
          Tensor.Dtype.[ I8; I16; F32 ])
      Fpga.Device.all
  in
  Alcotest.(check int) "72 keys" 72 (List.length keys);
  with_engine ~domains:1 (fun engine ->
      let round cap =
        List.iter
          (fun (device, dtype, weight_slices) ->
            let options =
              { F.default_options with
                F.weight_slices;
                capacity_override = Some cap }
            in
            let line = stage_line ~device ~op:"compile" model dtype options in
            let reply = result_of_line (handle_line engine line) in
            let c = F.compare_designs ~options ~device ~model dtype g in
            let result = field_exn "result" reply in
            let ms (r : F.design_report) =
              Json.Float (r.F.latency_seconds *. 1e3)
            in
            Alcotest.check json_t ("umm " ^ line) (ms c.F.umm)
              (field_exn "latency_ms" (field_exn "umm" result));
            Alcotest.check json_t ("lcmm " ^ line) (ms c.F.lcmm)
              (field_exn "latency_ms" (field_exn "lcmm" result));
            Alcotest.check json_t ("sram " ^ line)
              (Json.Int c.F.lcmm_plan.F.tensor_sram_bytes)
              (field_exn "tensor_sram_bytes" result))
          keys
      in
      round (1 lsl 20);
      let dse_1, prepares_1, _ = stage_counts engine in
      round (3 lsl 19);
      let dse_2, prepares_2, _ = stage_counts engine in
      Alcotest.(check int) "second round sweeps nothing" dse_1 dse_2;
      Alcotest.(check bool)
        (Printf.sprintf "second round prepares %d of 72 again"
           (prepares_2 - prepares_1))
        true
        (prepares_2 - prepares_1 >= 72 - 4))

(* Two domains of three threads, each thread with an engine of its own,
   ask one model's requests at once: 6 prepare keys (past the bound of
   4) at two capacities each, every thread in its own order, so stage
   inserts race each other and the bound.  Every reply must render as
   the same request answered sequentially with no memo. *)
let test_stage_memo_concurrent () =
  let model = "inception_v3" and dtype = Tensor.Dtype.I16 in
  let requests =
    List.concat_map
      (fun weight_slices ->
        List.map
          (fun (op, cap, fusion) ->
            ( op,
              { F.default_options with
                F.weight_slices = 10 + weight_slices;
                memory_bound_only = weight_slices mod 2 = 0;
                capacity_override = Some cap;
                fusion } ))
          [ ("compile", 1 lsl 20, false); ("simulate", 3 lsl 20, true) ])
      (List.init 6 Fun.id)
    |> Array.of_list
  in
  let n = Array.length requests in
  let lines =
    Array.map (fun (op, options) -> stage_line ~op model dtype options) requests
  in
  let threads_per_domain = 3 in
  let domain d () =
    let rendered = Array.make_matrix threads_per_domain n "" in
    let threads =
      List.init threads_per_domain (fun k ->
          Thread.create
            (fun () ->
              with_engine ~domains:1 (fun engine ->
                  let offset = ((d * threads_per_domain) + k) * 5 in
                  for j = 0 to n - 1 do
                    let i = (j + offset) mod n in
                    rendered.(k).(i) <- render engine lines.(i)
                  done))
            ())
    in
    List.iter Thread.join threads;
    rendered
  in
  let domains = List.init 2 (fun d -> Domain.spawn (domain d)) in
  let results = List.map Domain.join domains in
  let sequential =
    Array.map (fun (op, options) -> cold_render ~op model dtype options) requests
  in
  List.iteri
    (fun d rendered ->
      Array.iteri
        (fun k replies ->
          Array.iteri
            (fun i reply ->
              Alcotest.(check string)
                (Printf.sprintf "domain %d thread %d: %s" d k lines.(i))
                sequential.(i) reply)
            replies)
        rendered)
    results

(* Inline graphs are hashed on every request, never memoized: a changed
   graph under the same options gets its own digest, and the original
   keeps its pinned one. *)
let test_inline_digest_follows_graph () =
  let widened () =
    let module B = Dnn_graph.Builder in
    let b = B.create () in
    let x = B.input b ~name:"in" ~channels:16 ~height:32 ~width:32 () in
    let c1 = B.conv b ~name:"c1" ~kernel:(3, 3) ~out_channels:32 x in
    let c2 = B.conv b ~name:"c2" ~kernel:(3, 3) ~out_channels:32 c1 in
    let _c3 = B.conv b ~name:"c3" ~kernel:(1, 1) ~out_channels:96 c2 in
    B.finish b
  in
  let line g =
    {|{"op":"compile","graph":|}
    ^ Json.to_string (Dnn_serial.Codec.graph_to_json g)
    ^ "}"
  in
  let original = line (Helpers.chain ()) and changed = line (widened ()) in
  let pinned = "5e87bc434b1eef19c86bc14f8ff7dc76" in
  let fresh =
    Svc.Cache_key.request_digest ~extra:[ "compile" ] ~dtype:Tensor.Dtype.I16
      ~device:Fpga.Device.vu9p ~options:F.default_options (widened ())
  in
  with_engine ~domains:1 (fun engine ->
      Alcotest.(check string) "original, routed" pinned (routed_digest original);
      Alcotest.(check string) "changed, routed" fresh (routed_digest changed);
      Alcotest.(check string) "changed, served" fresh
        (served_digest engine changed);
      Alcotest.(check bool) "the change moved the digest" true (fresh <> pinned);
      Alcotest.(check string) "original again, served" pinned
        (served_digest engine original))

(* The CLI's --channels and the protocol's "channels" field share one
   bound, Fpga.Device.check_channels, and its message. *)
let test_channels_check_shared () =
  List.iter
    (fun (d : Fpga.Device.t) ->
      let banks = Fpga.Device.ddr_channels d in
      let name = d.Fpga.Device.device_name in
      let message =
        Printf.sprintf "expected a count from 1 to %d (%s)" banks name
      in
      List.iter
        (fun c ->
          Alcotest.(check (result int string))
            (Printf.sprintf "%s, %d channel(s)" name c)
            (if c >= 1 && c <= banks then Ok c else Error message)
            (Fpga.Device.check_channels d c))
        [ -1; 0; 1; banks; banks + 1; 100_000 ];
      match
        P.request_of_line
          (Printf.sprintf
             {|{"op":"compile","model":"alexnet","device":"%s","options":{"channels":%d}}|}
             name (banks + 1))
      with
      | Ok _ -> Alcotest.failf "%s: accepted %d channels" name (banks + 1)
      | Error msg ->
        Alcotest.(check string) (name ^ ": protocol message")
          ("field \"channels\": " ^ message) msg)
    Fpga.Device.all

(* --- concurrent socket accept --- *)

let test_socket_concurrent_connections () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcmm_test_%d.sock" (Unix.getpid ()))
  in
  let echo line = "echo:" ^ line ^ "\n" in
  let (_ : Thread.t) =
    Thread.create (fun () -> Svc.Server.serve_unix_socket echo ~path) ()
  in
  let rec wait_for_socket tries =
    if tries = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Unix.sleepf 0.05;
      wait_for_socket (tries - 1)
    end
  in
  wait_for_socket 100;
  let connect () =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect sock (Unix.ADDR_UNIX path);
    (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)
  in
  (* The first connection stays open and idle; a sequential accept loop
     would keep the second connection waiting forever. *)
  let idle_sock, _, idle_oc = connect () in
  let sock2, ic2, oc2 = connect () in
  output_string oc2 "hello\n";
  flush oc2;
  Alcotest.(check string) "second connection served while first is open"
    "echo:hello" (input_line ic2);
  (* The idle connection still works afterwards too. *)
  output_string idle_oc "later\n";
  flush idle_oc;
  let _, idle_ic, _ = (idle_sock, Unix.in_channel_of_descr idle_sock, ()) in
  Alcotest.(check string) "first connection still alive" "echo:later"
    (input_line idle_ic);
  Unix.close sock2;
  Unix.close idle_sock

let suite =
  [ Alcotest.test_case "cache lru eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache byte bound" `Quick test_cache_byte_bound;
    Alcotest.test_case "cache persistence" `Quick test_cache_persistence;
    Alcotest.test_case "cache key stability" `Quick test_cache_key_stability;
    Alcotest.test_case "pool parallel map" `Quick test_pool_map;
    Alcotest.test_case "pool exceptions" `Quick test_pool_exceptions;
    Alcotest.test_case "pool shutdown" `Quick test_pool_shutdown_rejects;
    Alcotest.test_case "pool domain count bounded" `Quick
      test_pool_domain_bound;
    Alcotest.test_case "cache megabytes never wrap" `Quick
      test_lru_bytes_of_mb;
    Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "options round-trip" `Quick test_options_roundtrip;
    Alcotest.test_case "compile cache hit" `Quick test_engine_compile_cache_hit;
    Alcotest.test_case "pass times per engine" `Quick
      test_engine_pass_times_per_engine;
    Alcotest.test_case "simulate and errors" `Quick test_engine_simulate_and_errors;
    Alcotest.test_case "checksum round-trip" `Quick test_engine_checksum;
    Alcotest.test_case "parallel determinism" `Quick test_engine_parallel_determinism;
    Alcotest.test_case "batch ordering" `Quick test_engine_batch_parallel_speed;
    Alcotest.test_case "run op parse" `Quick test_protocol_run_parse;
    Alcotest.test_case "run op rejects" `Quick test_protocol_run_rejects;
    Alcotest.test_case "channels bounded by the device" `Quick
      test_protocol_channels_bound;
    Alcotest.test_case "run op end-to-end" `Quick test_engine_run_op;
    Alcotest.test_case "request deadlines" `Quick test_engine_deadline;
    Alcotest.test_case "pool await_within" `Quick test_pool_await_within;
    Alcotest.test_case "pool crash restart" `Quick test_pool_crash_restart;
    Alcotest.test_case "breaker state machine" `Quick
      test_breaker_state_machine;
    Alcotest.test_case "circuit breaker" `Quick test_engine_circuit_breaker;
    Alcotest.test_case "cache quarantine" `Quick test_cache_quarantine;
    Alcotest.test_case "percentile estimator" `Quick test_percentile_estimator;
    Alcotest.test_case "latency reservoir" `Quick test_reservoir_sampling;
    Alcotest.test_case "stats report percentiles" `Quick
      test_stats_report_percentiles;
    Alcotest.test_case "cache_get/cache_put ops" `Quick test_engine_cache_ops;
    Alcotest.test_case "envelope re-encode digest-stable" `Quick
      test_envelope_reencode_digest_stable;
    Alcotest.test_case "route_digest matches engine" `Quick
      test_route_digest_matches_engine;
    Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
    Alcotest.test_case "zoo digests agree" `Quick test_zoo_digests_agree;
    Alcotest.test_case "inline run digest" `Quick test_inline_run_digest;
    Alcotest.test_case "hash edge cases" `Quick test_hash_edge_cases;
    Alcotest.test_case "concurrent digests" `Quick test_concurrent_digests;
    Alcotest.test_case "digest memo under concurrent inserts" `Quick
      test_digest_memo_concurrent;
    Alcotest.test_case "digest memo covers the zoo past its bound" `Quick
      test_digest_memo_covers_zoo;
    Alcotest.test_case "stage memo: warm reply = cold reply" `Quick
      test_stage_memo_warm_equals_cold;
    Alcotest.test_case "stage memo bounded under hostile options" `Quick
      test_stage_memo_bounded;
    Alcotest.test_case "stage memo under concurrent requests" `Quick
      test_stage_memo_concurrent;
    Alcotest.test_case "inline digest follows the graph" `Quick
      test_inline_digest_follows_graph;
    Alcotest.test_case "channel bound shared by CLI and protocol" `Quick
      test_channels_check_shared;
    Alcotest.test_case "socket serves connections concurrently" `Quick
      test_socket_concurrent_connections;
    Alcotest.test_case "protocol fuzz" `Quick test_protocol_fuzz ]
