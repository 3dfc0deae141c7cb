(* plan-scale: the planner alone.  [Framework.plan] on generated graphs,
   with a fixed accelerator design point (no design-space exploration,
   no service) at a quarter of its SRAM budget.

   Mixed-family graphs at 1k and 4k nodes share the time between
   splitting, coloring and DNNK; skip-family graphs at 256-512 nodes
   spend most of it in DNNK compensation.  Skip-family planning stops
   finishing between 528 and 536 nodes (see README.md), so the sizes
   stay below that limit. *)

module F = Lcmm.Framework
module H = Harness

(* (family, nodes, generator stream) per graph.  The graphs come from
   fixed generator seeds (stream 0 of each mixed size is the graph
   `bench perf` plans), so every run times the same planning work; the
   workload seed orders the replay.  Seeds of one family and size draw
   very different graphs (a 1k mixed graph plans in 10 to 100 ms), which
   would swamp run-to-run differences if the workload seed drew them.
   A pass plans each graph four times and the slowest one, the first
   4k graph, eight: with every graph at a tenth of the operations the
   p90 tail would sit on the edge between the slowest graph and the
   next, and jump between them from run to run; at a sixth it falls
   inside the slowest graph's own latencies. *)
let shapes =
  [ (Check.Gen.Mixed, 1024, 0); (Check.Gen.Mixed, 1024, 1);
    (Check.Gen.Mixed, 1024, 2); (Check.Gen.Mixed, 4096, 0);
    (Check.Gen.Mixed, 4096, 1);
    (Check.Gen.Skip, 256, 0); (Check.Gen.Skip, 256, 1);
    (Check.Gen.Skip, 384, 0); (Check.Gen.Skip, 384, 3);
    (Check.Gen.Skip, 512, 0) ]

let graph_of (family, nodes, i) =
  let st =
    if i = 0 then Random.State.make [| 2026; nodes |]
    else Random.State.make [| 2026; nodes; i |]
  in
  Check.Gen.sized_graph ~family st ~nodes

let dtype = Tensor.Dtype.I16

let config = Accel.Config.make ~style:Accel.Config.Lcmm dtype

let options =
  { F.default_options with
    capacity_override = Some (Accel.Config.sram_budget_bytes config / 4) }

type state = {
  graphs : Dnn_graph.Graph.t array;
  families : string array;
  names : string array;
  warm : F.plan array;     (* the untimed warm pass's plans *)
  digests : string array;  (* their fingerprint digests *)
  slots : F.plan option array;
}

let plan g = F.plan ~options config g

let plan_digest p = Dnn_serial.Codec.digest_string (F.fingerprint p)

let base = Array.append (H.each ~copies:4 (List.length shapes)) (Array.make 4 3)

let setup () =
  let shapes = Array.of_list shapes in
  let graphs = Array.map graph_of shapes in
  (* Planning every graph once first grows the heap to its working
     size, so the timed passes see the steady state. *)
  let warm = Array.map plan graphs in
  { graphs;
    families = Array.map (fun (f, _, _) -> Check.Gen.family_name f) shapes;
    names =
      Array.mapi
        (fun k (f, nodes, _) ->
          Printf.sprintf "%s%d #%d" (Check.Gen.family_name f) nodes k)
        shapes;
    warm;
    digests = Array.map plan_digest warm;
    slots = Array.make (Array.length base) None }

(* Plan the skip-family graph of [nodes] nodes drawn like the workload's
   own graphs: the reproducer for the planning limit in README.md. *)
let plan_skip nodes =
  let g = graph_of (Check.Gen.Skip, nodes, 0) in
  let p, t0, t1 = Clock.time (fun () -> plan g) in
  Printf.printf
    "skip-family graph, %d nodes (generator seed [2026; %d]): planned in \
     %.3f s, plan digest %s\n"
    (Dnn_graph.Graph.node_count g) nodes (t1 -. t0) (plan_digest p)

(* Every public pass [Framework.plan] calls, in its order and with its
   arguments, each timed as a replayed child of the plan's span.
   Returns the counts the passes produce. *)
let replay_passes spans ~parent ~req ~family g =
  let r name f = Span.replay spans ~parent ~req (name ^ "." ^ family) f in
  let profiles =
    r "accel.profile_ms" (fun () -> Accel.Latency.profile_graph config g)
  in
  let metric, items =
    r "core.metric_ms" (fun () ->
        let metric = Lcmm.Metric.build g profiles in
        ( metric,
          Array.of_list
            (Lcmm.Metric.eligible_items metric
               ~memory_bound_only:options.F.memory_bound_only) ))
  in
  let sizes = Array.map (Lcmm.Metric.item_size_bytes dtype metric) items in
  let weight_targets =
    Array.to_list items
    |> List.filter_map (function
         | Lcmm.Metric.Weight_of n | Lcmm.Metric.Weight_slice { node = n; _ } ->
           Some n
         | Lcmm.Metric.Feature_value _ -> None)
    |> List.sort_uniq compare
  in
  let pdg =
    if weight_targets = [] then None
    else
      r "core.prefetch_ms" (fun () ->
          Some
            (Lcmm.Prefetch.build metric ~targets:weight_targets
               ~node_latency:(fun id ->
                 Accel.Latency.umm_node_latency profiles.(id))))
  in
  let prefetch_source n =
    match pdg with None -> None | Some p -> Lcmm.Prefetch.source_of p n
  in
  let intervals =
    r "core.liveness_ms" (fun () ->
        Array.map (Lcmm.Liveness.item_interval g ~prefetch_source) items)
  in
  let never_share_class = function
    | Lcmm.Metric.Weight_of _ | Lcmm.Metric.Weight_slice _ -> 1
    | Lcmm.Metric.Feature_value _ -> 0
  in
  let interference =
    r "core.interference_ms" (fun () ->
        Lcmm.Interference.build ~never_share_class ~items ~intervals ())
  in
  let vbufs =
    r "core.coloring_ms" (fun () ->
        Lcmm.Coloring.color ~strategy:options.F.coloring interference ~sizes)
  in
  let capacity_bytes =
    min (Option.get options.F.capacity_override)
      (Accel.Config.sram_budget_bytes config)
  in
  let workspace = Lcmm.Dnnk.workspace () in
  let initial =
    r "core.dnnk_ms" (fun () ->
        Lcmm.Dnnk.allocate ~compensation:options.F.compensation ~workspace
          metric ~capacity_bytes vbufs)
  in
  let outcome =
    r "core.splitting_ms" (fun () ->
        Lcmm.Splitting.run ~compensation:options.F.compensation
          ~strategy:options.F.coloring ~workspace metric interference ~sizes
          ~capacity_bytes initial)
  in
  (Array.length items, List.length vbufs, outcome.Lcmm.Splitting.iterations)

let run ~seed ~seconds ~trace ~reference =
  let items = ref 0 and vbufs = ref 0 and iterations = ref 0 in
  let traced_ops = ref 0 in
  let traced st spans ~slot ~req k =
    incr traced_ops;
    let plan_id = ref (-1) in
    let p =
      Span.within spans ~req "op" (fun root ->
          Span.within spans ~parent:root ~req "framework.plan_ms" (fun id ->
              plan_id := id;
              plan st.graphs.(k)))
    in
    let i, v, it =
      replay_passes spans ~parent:!plan_id ~req ~family:st.families.(k)
        st.graphs.(k)
    in
    items := !items + i;
    vbufs := !vbufs + v;
    iterations := !iterations + it;
    st.slots.(slot) <- Some p
  in
  let check_pass st seq tally =
    H.check_digests ~digest:plan_digest ~expected:st.digests ~seq st.slots tally
  in
  let st, r =
    H.run ~setup ~dispose:ignore
      ~order:(fun _ -> H.pass_order ~seed ~tag:5 base)
      ~kinds:(fun st -> st.names)
      ~nominal_pass_s:6.
      ~op:(fun st ~slot k -> st.slots.(slot) <- Some (plan st.graphs.(k)))
      ~traced ~check_pass
      ~remainder:("framework.plan_ms", "framework.overhead_ms")
      ~trace_path:(Printf.sprintf ".perfbench/trace-plan-scale-%d.json" seed)
      ~seconds ~trace ()
  in
  H.check_reference ~reference st.digests r.H.tally;
  let geo f = Stats.geomean (Array.to_list (Array.mapi f st.warm)) in
  let simulated =
    [ H.metric "speedup_geomean" "x"
        (geo (fun k p ->
             Accel.Latency.umm_total
               (Accel.Latency.profile_graph config st.graphs.(k))
             /. F.latency p));
      H.metric "ddr_mb_geomean" "MB"
        (geo (fun _ (p : F.plan) ->
             float_of_int
               (Lcmm.Traffic.total_bytes
                  (Lcmm.Traffic.of_allocation p.F.metric
                     ~on_chip:p.F.allocation.Lcmm.Dnnk.on_chip))
             /. 1e6)) ]
  in
  let per_op v = float_of_int v /. float_of_int (max 1 !traced_ops) in
  let counts =
    if not trace then []
    else
      [ H.metric "core.items" "count" (per_op !items);
        H.metric "core.vbufs" "count" (per_op !vbufs);
        H.metric "core.splitting_iterations" "count" (per_op !iterations) ]
  in
  ({ r with H.simulated; layers = r.H.layers @ counts }, Some st.digests)
