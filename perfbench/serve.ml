(* serve-warm and serve-cold: the plan service's request path, driven
   in-process through [Engine.handle] by one closed-loop client.

   An operation is what a server does with one request line: parse it
   ([Protocol.request_of_line]), handle it ([Engine.handle], which hands
   the request to the engine's single worker domain), and render the
   reply ([Engine.response_to_json] plus [Json.to_string]).

   serve-warm replays a skewed mix of 39 zoo requests after an untimed
   pass has cached every one, so each timed request is a cache hit: the
   read path (model build, cache key digest, lookup, render).  The skew
   is an assumption, not measured traffic; see [warm_inputs].

   serve-cold replays more distinct requests than the 256-entry plan
   cache holds, cyclically, so every request misses: the write and
   eviction path, where design-space exploration, planning and
   simulation do the work. *)

module E = Lcmm_service.Engine
module P = Lcmm_service.Protocol
module F = Lcmm.Framework
module Json = Dnn_serial.Json
module H = Harness

type reply = { env : P.envelope; resp : E.response }

type state = {
  engine : E.t;
  lines : string array;     (* request line per kind *)
  names : string array;     (* kind names *)
  base : int array;
      (* kind ids: serve-warm's multiset, shuffled afresh every pass;
         serve-cold's one replay order *)
  expected : string array;
      (* serve-warm: each kind's miss reply rendered with ~timing:false *)
  speedups : float array;   (* each kind's reported speedup *)
  routes : string option array;  (* serve-cold: each kind's route digest *)
  payloads : string option array;
      (* serve-cold: digest of each kind's reply rendered with
         ~timing:false, from reference.json or, when recording, from
         its first reply *)
  slots : (reply, string) result array;
  mirror : Lcmm_service.Plan_cache.t;  (* see [traced_op] *)
  meters : Lcmm_service.Metrics.t;     (* likewise *)
}

let obj fields = Json.to_string (Json.Obj fields)

(* --- workload inputs --- *)

let warm_kinds () =
  List.concat_map
    (fun e ->
      let m = e.Models.Zoo.model_name in
      [ ("compile", m, "i16"); ("compile", m, "i8"); ("simulate", m, "i16") ])
    Models.Zoo.all
  |> Array.of_list

(* Zipf(1) counts over the kinds, every kind at least once: the multiset
   is fixed, and the seed only orders the replay, so two seeds time the
   same work.  The service keeps no request log to take the skew from,
   so the ranking is an assumption: smaller models are asked for more
   often, the kinds ranked by node count (compile i16, compile i8, then
   simulate within a model).  A warm hit costs about what building the
   model and digesting its graph cost, so this keeps the largest models
   from dominating the time: ranked in zoo order, resnet152's three
   kinds, the most expensive hits, got 43% of the requests. *)
let warm_inputs () =
  let kinds =
    warm_kinds ()
    |> Array.mapi (fun i ((_, model, _) as k) ->
           ((Dnn_graph.Graph.node_count (Models.Zoo.build model), i), k))
  in
  Array.sort compare kinds;
  let kinds = Array.map snd kinds in
  let length = 400 in
  let h = ref 0. in
  Array.iteri (fun r _ -> h := !h +. (1. /. float_of_int (r + 1))) kinds;
  let counts =
    Array.mapi
      (fun r _ ->
        max 1
          (int_of_float
             (Float.round
                (float_of_int length /. float_of_int (r + 1) /. !h))))
      kinds
  in
  let base =
    Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts))
  in
  let lines =
    Array.mapi
      (fun k (op, model, dtype) ->
        obj
          [ ("op", Json.String op); ("id", Json.Int k);
            ("model", Json.String model); ("dtype", Json.String dtype) ])
      kinds
  in
  let names =
    Array.map (fun (op, model, dtype) -> Printf.sprintf "%s %s %s" op model dtype)
      kinds
  in
  (lines, names, base)

(* Unique requests, more than the plan cache holds: every zoo model at
   several SRAM caps (a quarter of them with fusion), plus mixed-family
   graphs shipped inline at fixed sizes.  The requests come from a fixed
   generator seed, so every run times the same work; the workload seed
   orders the replay, the same order every pass, so that more than 256
   other requests separate two of the same and every one misses.  Like
   serve-warm's skew, this mix is an assumption, not measured traffic:
   it weights design-space exploration (every zoo request), planning
   under SRAM pressure (the caps) and inline-graph decoding. *)
let cold_caps_per_model = 16

(* Node counts of the inline graphs, smallest most often: a 1k-node
   graph costs about as much as twenty zoo requests. *)
let cold_graph_sizes =
  List.concat
    (List.init 5 (fun _ -> [ 64; 128; 64; 256; 128; 64; 512; 128; 64; 256; 64 ]))
  @ [ 1024; 1024 ]
  |> Array.of_list

let cold_inputs ~seed =
  let st = Random.State.make [| 2026; 2 |] in
  let budget =
    Accel.Config.sram_budget_bytes
      (Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16)
  in
  let zoo =
    List.concat_map
      (fun e ->
        List.init cold_caps_per_model (fun i ->
            let cap = (budget / 16) + Random.State.int st (budget / 2) in
            let op = if i mod 2 = 0 then "compile" else "simulate" in
            let fusion = i mod 4 = 1 in
            (op, `Model e.Models.Zoo.model_name, cap, fusion)))
      Models.Zoo.all
  in
  let graphs =
    List.mapi
      (fun i nodes ->
        let g = Check.Gen.sized_graph ~family:Check.Gen.Mixed st ~nodes in
        let op = if i mod 2 = 0 then "compile" else "simulate" in
        (op, `Graph (nodes, g), budget / 4, false))
      (Array.to_list cold_graph_sizes)
  in
  let kinds = Array.of_list (zoo @ graphs) in
  let lines =
    Array.mapi
      (fun k (op, target, cap, fusion) ->
        let target_field =
          match target with
          | `Model m -> ("model", Json.String m)
          | `Graph (_, g) -> ("graph", Dnn_serial.Codec.graph_to_json g)
        in
        obj
          [ ("op", Json.String op); ("id", Json.Int k); target_field;
            ( "options",
              Json.Obj
                [ ("capacity_override", Json.Int cap);
                  ("fusion", Json.Bool fusion) ] ) ])
      kinds
  in
  let names =
    Array.mapi
      (fun k (op, target, cap, fusion) ->
        Printf.sprintf "%s %s cap=%d%s #%d" op
          (match target with
          | `Model m -> m
          | `Graph (n, _) -> Printf.sprintf "graph%d" n)
          cap
          (if fusion then " fusion" else "")
          k)
      kinds
  in
  (lines, names, H.shuffle (Random.State.make [| seed; 3 |])
                    (Array.init (Array.length kinds) Fun.id))

(* --- one operation --- *)

let handle_line engine line =
  match P.request_of_line line with
  | Error msg -> Error msg
  | Ok env ->
    let resp = E.handle engine env in
    ignore (Sys.opaque_identity (Json.to_string (E.response_to_json resp)));
    Ok { env; resp }

let render resp = Json.to_string (E.response_to_json ~timing:false resp)

let payload_speedup (resp : E.response) =
  match resp.E.outcome with
  | Ok p -> (
    match Json.member_opt "speedup" p with
    | Some v -> Result.to_option (Json.to_float v)
    | None -> None)
  | Error _ -> None

(* Both domains run with a 4M-word minor heap.  In OCaml 5 every minor
   collection stops both domains, and with the default 256k words a warm
   request (about 0.7 MB allocated) triggers one every few requests;
   each then waits for the blocked client domain to answer, so the tail
   and throughput swung with whether the second vCPU of a 2-vCPU host
   was free (p99.9 2 ms in one run, 7 ms in the next).  The larger heap
   makes those collections about sixteen times rarer.  The single-domain
   workloads keep the default; on plan-scale the larger heap was slower
   and no steadier. *)
let minor_heap_words = 4 * 1024 * 1024

let set_minor_heap () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words }

let new_engine () =
  let pool = Lcmm.Pool.create ~domains:1 () in
  Lcmm.Pool.run pool set_minor_heap;
  E.create ~pool ()

let setup ~warm ~reference ~seed () =
  let lines, names, base =
    if warm then warm_inputs () else cold_inputs ~seed
  in
  let engine = new_engine () in
  let kinds = Array.length lines in
  let expected, speedups =
    if not warm then begin
      (* An untimed warm-up on requests outside the timed set (no SRAM
         cap), so the timed pass starts with a grown heap and warmed
         code paths; its entries are evicted early in the timed pass. *)
      List.iter
        (fun e ->
          let line =
            obj
              [ ("op", Json.String "compile");
                ("model", Json.String e.Models.Zoo.model_name) ]
          in
          match handle_line engine line with
          | Ok { resp = { E.outcome = Ok _; _ }; _ } -> ()
          | _ -> failwith "serve-cold: warm-up request failed")
        Models.Zoo.all;
      ([||], Array.make kinds 0.)
    end
    else begin
      (* The untimed warm pass: every kind misses once and is cached. *)
      let replies =
        Array.map
          (fun line ->
            match handle_line engine line with
            | Ok { resp; _ } when resp.E.cache = E.Miss -> resp
            | Ok _ -> failwith "serve-warm: warm pass did not miss"
            | Error msg -> failwith ("serve-warm: warm pass: " ^ msg))
          lines
      in
      ( Array.map render replies,
        Array.map
          (fun r ->
            match payload_speedup r with
            | Some s -> s
            | None -> failwith "serve-warm: reply without a speedup")
          replies )
    end
  in
  { engine; lines; names; base; expected; speedups;
    routes = Array.make kinds None;
    payloads =
      (match reference with
      | Some d when Array.length d = kinds -> Array.map Option.some d
      | Some _ -> failwith "serve-cold: reference.json has the wrong count"
      | None -> Array.make kinds None);
    slots = Array.make (Array.length base) (Error "not run");
    mirror = Lcmm_service.Plan_cache.create ();
    meters = Lcmm_service.Metrics.create () }

(* --- checks --- *)

let check_warm st k = function
  | Error _ -> false
  | Ok { resp; _ } ->
    resp.E.cache = E.Hit && render resp = st.expected.(k)

(* A cold reply must be a fresh computation filed under the digest the
   request routes to, and its rendering must be the one stored for its
   kind in reference.json: that pins what design-space exploration,
   planning, fusion and simulation produced.  The route digest of each
   kind is computed once; the request is the same every pass. *)
let check_cold st k = function
  | Error _ -> false
  | Ok { env; resp } -> (
    let route =
      match st.routes.(k) with
      | Some d -> d
      | None ->
        let d =
          match E.route_digest env.P.request with
          | Ok (Some d) -> d
          | Ok None | Error _ -> "<none>"
        in
        st.routes.(k) <- Some d;
        d
    in
    let payload = Dnn_serial.Codec.digest_string (render resp) in
    if st.payloads.(k) = None then st.payloads.(k) <- Some payload;
    match resp.E.outcome, payload_speedup resp with
    | Ok p, Some speedup ->
      if st.speedups.(k) = 0. then st.speedups.(k) <- speedup;
      resp.E.cache = E.Miss
      && Json.member_opt "digest" p = Some (Json.String route)
      && st.payloads.(k) = Some payload
    | _ -> false)

(* --- traced replay --- *)

let spec_of (env : P.envelope) =
  match env.P.request with
  | P.Compile spec -> Some (spec, [ "compile" ], false)
  | P.Simulate (spec, images) ->
    Some
      ( spec,
        [ "simulate";
          (match images with None -> "single" | Some n -> string_of_int n) ],
        true )
  | _ -> None

(* One traced operation: the same parse, handle and render as the timed
   path, each in a span under the operation's root, then the layers
   [Engine.handle] calls internally, replayed on the same inputs as
   children of its span, in the order it calls them.

   [Engine.handle] runs those layers on the engine's worker domain,
   where the same work takes longer than on the calling domain, so the
   replay runs there too, in one hand-off.  The hand-off itself is timed
   separately, with an empty job.  [mirror] is a plan cache of the
   engine's size that sees the same lookups and inserts, so the replayed
   lookup hits or misses as the engine's did; [meters] is a metrics
   registry the replayed record goes to. *)
let traced_op spans mirror meters engine ~req line =
  let parse_id = ref (-1) and handle_id = ref (-1) in
  let reply =
    Span.within spans ~req "op" (fun root ->
        match
          Span.within spans ~parent:root ~req "protocol.parse_ms" (fun id ->
              parse_id := id;
              P.request_of_line line)
        with
        | Error msg -> Error msg
        | Ok env ->
          let resp =
            Span.within spans ~parent:root ~req "engine.handle_ms" (fun id ->
                handle_id := id;
                E.handle engine env)
          in
          Span.within spans ~parent:root ~req "engine.render_ms" (fun _ ->
              ignore
                (Sys.opaque_identity (Json.to_string (E.response_to_json resp))));
          Ok { env; resp })
  in
  (match reply with
  | Error _ -> ()
  | Ok { env; resp } ->
    let replay name f = Span.replay spans ~parent:!handle_id ~req name f in
    replay "pool.handoff_ms" (fun () -> Lcmm.Pool.run (E.pool engine) ignore);
    (* Decoding a shipped graph is part of parsing the line. *)
    (match spec_of env with
    | Some ({ P.target = P.Inline _; _ }, _, _) ->
      let graph_v =
        Result.get_ok (Result.bind (Json.of_string line) (Json.member "graph"))
      in
      ignore
        (Span.replay spans ~parent:!parse_id ~req "serial.decode_ms" (fun () ->
             Dnn_serial.Codec.graph_of_json graph_v))
    | _ -> ());
    Lcmm.Pool.run (E.pool engine) (fun () ->
        (match spec_of env with
        | None -> ()
        | Some (spec, extra, simulate) -> (
          let g =
            match spec.P.target with
            | P.Named m ->
              replay "models.build_ms" (fun () -> Models.Zoo.build m)
            | P.Inline g -> g
          in
          let digest =
            replay "cache_key.digest_ms" (fun () ->
                Lcmm_service.Cache_key.request_digest ~extra
                  ~dtype:spec.P.dtype ~device:spec.P.device
                  ~options:spec.P.options g)
          in
          match
            replay "plan_cache.find_ms" (fun () ->
                Lcmm_service.Plan_cache.find mirror digest)
          with
          | Some _ -> ()
          | None -> (
            let device = spec.P.device and dtype = spec.P.dtype in
            let lcmm_dse =
              replay "accel.dse_ms" (fun () ->
                  ignore (Accel.Dse.run ~device ~style:Accel.Config.Umm dtype g);
                  Accel.Dse.run ~device ~style:Accel.Config.Lcmm dtype g)
            in
            let plan =
              replay "framework.plan_ms" (fun () ->
                  F.plan ~options:spec.P.options lcmm_dse.Accel.Dse.config g)
            in
            let plan =
              if not spec.P.options.F.fusion then plan
              else
                replay "fusion.apply_ms" (fun () ->
                    Lcmm_fusion.Fusion.effective_plan
                      (Lcmm_fusion.Fusion.apply plan))
            in
            if simulate then
              replay "sim.simulate_ms" (fun () ->
                  ignore (Sim.Engine.simulate_umm plan.F.metric);
                  ignore
                    (Sim.Engine.simulate ?prefetch:plan.F.prefetch
                       plan.F.metric
                       ~on_chip:plan.F.allocation.Lcmm.Dnnk.on_chip));
            match resp.E.outcome with
            | Ok payload ->
              replay "plan_cache.put_ms" (fun () ->
                  Lcmm_service.Plan_cache.put mirror digest payload)
            | Error _ -> ())));
        replay "metrics.record_ms" (fun () ->
            Lcmm_service.Metrics.record meters ~op:resp.E.op
              ~ok:(Result.is_ok resp.E.outcome) ~seconds:resp.E.elapsed_s)));
  reply

(* --- the workload --- *)

(* The mirror cache of a traced serve-warm run starts with every kind's
   payload, as the engine's cache does after the warm pass. *)
let fill_mirror st =
  Array.iter
    (fun line ->
      match P.request_of_line line with
      | Ok env -> (
        match E.route_digest env.P.request with
        | Ok (Some d) ->
          Option.iter
            (Lcmm_service.Plan_cache.put st.mirror d)
            (Lcmm_service.Plan_cache.find (E.cache st.engine) d)
        | Ok None | Error _ -> ())
      | Error _ -> ())
    st.lines

let run ~warm ~seed ~seconds ~trace ~reference =
  let reference = if warm then None else reference in
  set_minor_heap ();
  let name = if warm then "serve-warm" else "serve-cold" in
  let module C = Lcmm_service.Plan_cache in
  let cache_before = ref None in
  let check_pass st seq tally =
    Array.iteri
      (fun slot r ->
        let k = seq.(slot) in
        Stats.record tally
          ~ok:(if warm then check_warm st k r else check_cold st k r))
      st.slots
  in
  let setup () =
    let st = setup ~warm ~reference ~seed () in
    cache_before := Some (C.stats (E.cache st.engine));
    st
  in
  let mirror_filled = ref false in
  let traced st spans ~slot ~req k =
    if warm && not !mirror_filled then begin
      fill_mirror st;
      mirror_filled := true
    end;
    st.slots.(slot) <-
      traced_op spans st.mirror st.meters st.engine ~req st.lines.(k)
  in
  (* serve-cold repeats one order: a fresh one could bring a request
     back before 256 others evict it. *)
  let order st p = if warm then H.pass_order ~seed ~tag:1 st.base p else st.base in
  let st, r =
    H.run ~setup ~dispose:(fun st -> E.shutdown st.engine)
      ~order
      ~kinds:(fun st -> st.names)
      ~nominal_pass_s:(if warm then 0.15 else 7.)
      ~op:(fun st ~slot k ->
        st.slots.(slot) <- handle_line st.engine st.lines.(k))
      ~traced ~check_pass
      ~remainder:("engine.handle_ms", "engine.overhead_ms")
      ~trace_path:(Printf.sprintf ".perfbench/trace-%s-%d.json" name seed)
      ~seconds ~trace ()
  in
  E.shutdown st.engine;
  let c0 = Option.get !cache_before and c1 = C.stats (E.cache st.engine) in
  let lookups = c1.C.hits + c1.C.misses - c0.C.hits - c0.C.misses in
  let hit_ratio =
    if lookups = 0 then 0.
    else float_of_int (c1.C.hits - c0.C.hits) /. float_of_int lookups
  in
  let cache_layers =
    if not trace then []
    else
      [ H.metric "plan_cache.hit_ratio" "ratio" hit_ratio;
        H.metric "plan_cache.evictions" "count"
          (float_of_int (c1.C.evictions - c0.C.evictions)) ]
  in
  ( { r with
    H.simulated =
      [ H.metric "speedup_geomean" "x"
          (Stats.geomean (Array.to_list st.speedups)) ];
    layers = r.H.layers @ cache_layers;
    notes =
      r.H.notes
      @ [ Printf.sprintf "plan cache: hit ratio %.3f over the timed phase"
            hit_ratio;
          Printf.sprintf
            "LCMM is slower than its UMM baseline on %d of %d kinds \
             (reported speedup below 1; not a failure)"
            (Array.fold_left
               (fun n s -> if s < 1. then n + 1 else n)
               0 st.speedups)
            (Array.length st.speedups) ] },
    if warm then None else Some (Array.map (Option.value ~default:"") st.payloads) )
