(* The discrete-event simulator against the analytical model. *)

module Metric = Lcmm.Metric
module Engine = Sim.Engine
module Latency = Accel.Latency

let fixture () = Helpers.metric_of (Helpers.inception_snippet ())

let test_umm_matches_analytic () =
  let _, m = fixture () in
  let run = Engine.simulate_umm m in
  Alcotest.(check (float 1e-12)) "UMM simulation = analytic sum"
    (Latency.umm_total m.Metric.profiles)
    run.Engine.total;
  Alcotest.(check (float 0.)) "no prefetch wait" 0. run.Engine.prefetch_wait

let test_nodes_sequential () =
  let _, m = fixture () in
  let run = Engine.simulate_umm m in
  let previous_finish = ref 0. in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "starts after predecessor" true
        (t.Engine.start >= !previous_finish -. 1e-15);
      Alcotest.(check bool) "finish after start" true (t.Engine.finish >= t.Engine.start);
      previous_finish := t.Engine.finish)
    run.Engine.timings

let lcmm_run () =
  let g = Helpers.inception_snippet () in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let p = Lcmm.Framework.plan cfg g in
  let m = p.Lcmm.Framework.metric in
  let on_chip = p.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip in
  (g, m, p, Engine.simulate ?prefetch:p.Lcmm.Framework.prefetch m ~on_chip)

let test_lcmm_at_least_analytic () =
  (* The simulator adds channel contention on top of the analytic Eq. 1
     sum, so its total is never lower than the allocation's exact
     latency (excluding the analytically estimated stalls). *)
  let _, m, p, run = lcmm_run () in
  let analytic =
    Metric.total_latency m ~on_chip:p.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip
  in
  Alcotest.(check bool) "simulated >= analytic" true
    (run.Engine.total >= analytic -. 1e-12);
  Alcotest.(check bool) "wait non-negative" true (run.Engine.prefetch_wait >= 0.)

let test_lcmm_beats_umm () =
  let _, m, _, run = lcmm_run () in
  let umm = Engine.simulate_umm m in
  Alcotest.(check bool) "improves" true (run.Engine.total < umm.Engine.total)

let test_weight_channel_accounting () =
  let _, m, p, run = lcmm_run () in
  (* The weight channel must carry at least the one-time loads of every
     pinned weight. *)
  let pinned_loads =
    Metric.Item_set.fold
      (fun item acc ->
        match item with
        | Metric.Weight_of n -> acc +. m.Metric.profiles.(n).Latency.wt_load_once
        | Metric.Weight_slice { node; of_k; _ } ->
          acc +. (m.Metric.profiles.(node).Latency.wt_load_once /. float_of_int of_k)
        | Metric.Feature_value _ -> acc)
      p.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip 0.
  in
  Alcotest.(check bool) "channel busy >= pinned loads" true
    (run.Engine.wt_channel_busy >= pinned_loads -. 1e-12)

let test_bound_fractions_sum () =
  let _, m = fixture () in
  let run = Engine.simulate_umm m in
  let s =
    List.fold_left
      (fun acc b -> acc +. Engine.bound_fraction run b)
      0.
      [ Engine.Compute; Engine.Input_stream; Engine.Weight_stream;
        Engine.Output_stream ]
  in
  (* Waits are not part of node residence, so fractions sum to <= 1 and
     nearly 1 without prefetch. *)
  Alcotest.(check bool) "fractions ~1" true (s > 0.99 && s <= 1.0 +. 1e-9)

let test_report_per_block () =
  let g = Models.Zoo.build "googlenet" in
  let _, m = Helpers.metric_of g in
  let run = Engine.simulate_umm m in
  let rows = Sim.Report.per_block g run in
  Alcotest.(check int) "nine blocks" 9 (List.length rows);
  let block_time = List.fold_left (fun a r -> a +. r.Sim.Report.seconds) 0. rows in
  Alcotest.(check bool) "blocks within total" true (block_time <= run.Engine.total +. 1e-9);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Sim.Report.block ^ " tops positive") true
        (r.Sim.Report.tops > 0.))
    rows

let test_speedup_table () =
  let g = Models.Zoo.build "googlenet" in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let p = Lcmm.Framework.plan cfg g in
  let m = p.Lcmm.Framework.metric in
  let baseline = Engine.simulate_umm m in
  let improved =
    Engine.simulate ?prefetch:p.Lcmm.Framework.prefetch m
      ~on_chip:p.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip
  in
  let table =
    List.map2
      (fun b i -> i.Sim.Report.tops /. b.Sim.Report.tops)
      (Sim.Report.per_block g baseline)
      (Sim.Report.per_block g improved)
  in
  Alcotest.(check int) "rows" 9 (List.length table);
  (* Most blocks speed up; none collapses to zero. *)
  let improved_count = List.length (List.filter (fun s -> s > 1.0) table) in
  Alcotest.(check bool) "majority improve" true (improved_count >= 5)

let test_trace_export () =
  let g = Helpers.inception_snippet () in
  let _, m = Helpers.metric_of g in
  let run = Engine.simulate_umm m in
  let json = Sim.Trace.to_json g run in
  (* The trace is valid JSON and has one duration event per running node. *)
  (match Dnn_serial.Json.of_string (Dnn_serial.Json.to_string json) with
  | Ok v -> Alcotest.(check bool) "round-trips" true (Dnn_serial.Json.equal v json)
  | Error msg -> Alcotest.fail msg);
  match json with
  | Dnn_serial.Json.List events ->
    let running =
      Array.to_list run.Engine.timings
      |> List.filter (fun t -> t.Engine.finish > t.Engine.start)
    in
    Alcotest.(check int) "one event per running node" (List.length running)
      (List.length events)
  | _ -> Alcotest.fail "expected a JSON array"

let prop_sim_umm_equals_analytic =
  Helpers.qtest ~count:25 "simulated UMM equals analytic on random graphs"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let run = Engine.simulate_umm m in
      abs_float (run.Engine.total -. Latency.umm_total m.Metric.profiles) < 1e-12)

let prop_sim_monotone_in_allocation =
  Helpers.qtest ~count:20 "pinning everything never slows the simulation"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let all =
        Metric.Item_set.of_list (Metric.eligible_items m ~memory_bound_only:false)
      in
      let umm = Engine.simulate_umm m in
      (* No PDG: pinned weights load on demand, which can stall; compare
         against the version including its waits. *)
      let pinned = Engine.simulate m ~on_chip:all in
      pinned.Engine.total -. pinned.Engine.prefetch_wait <= umm.Engine.total +. 1e-9)

let prop_sim_superset_pinning_monotone =
  Helpers.qtest ~count:20 "pinning more features never slows the simulation"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let features =
        Metric.eligible_items m ~memory_bound_only:false
        |> List.filter (function
             | Metric.Feature_value _ -> true
             | Metric.Weight_of _ | Metric.Weight_slice _ -> false)
      in
      (* Walk a chain of nested feature sets; every step up must be no
         slower than the one before (features never stall a channel). *)
      let rec monotone prev set = function
        | [] -> true
        | it :: rest ->
          let set = Metric.Item_set.add it set in
          let t = (Engine.simulate m ~on_chip:set).Engine.total in
          t <= prev +. 1e-9 && monotone t set rest
      in
      monotone
        (Engine.simulate_umm m).Engine.total
        Metric.Item_set.empty features)

let test_weights_resident_never_slower () =
  (* Steady-state batching keeps the weights on chip; on every zoo model
     that must never lose to the cold run. *)
  List.iter
    (fun e ->
      let g = e.Models.Zoo.build () in
      let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
      let p = Lcmm.Framework.plan cfg g in
      let m = p.Lcmm.Framework.metric in
      let on_chip = p.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip in
      let prefetch = p.Lcmm.Framework.prefetch in
      let cold = Engine.simulate ?prefetch m ~on_chip in
      let resident = Engine.simulate ~weights_resident:true ?prefetch m ~on_chip in
      Alcotest.(check bool)
        (Printf.sprintf "%s: resident %.9e <= cold %.9e" e.Models.Zoo.model_name
           resident.Engine.total cold.Engine.total)
        true
        (resident.Engine.total <= cold.Engine.total +. 1e-12))
    Models.Zoo.all

let suite =
  [ Alcotest.test_case "umm matches analytic" `Quick test_umm_matches_analytic;
    Alcotest.test_case "nodes sequential" `Quick test_nodes_sequential;
    Alcotest.test_case "lcmm >= analytic" `Quick test_lcmm_at_least_analytic;
    Alcotest.test_case "lcmm beats umm" `Quick test_lcmm_beats_umm;
    Alcotest.test_case "weight channel accounting" `Quick test_weight_channel_accounting;
    Alcotest.test_case "bound fractions" `Quick test_bound_fractions_sum;
    Alcotest.test_case "per-block report" `Quick test_report_per_block;
    Alcotest.test_case "speedup table" `Quick test_speedup_table;
    Alcotest.test_case "trace export" `Quick test_trace_export;
    Alcotest.test_case "weights resident never slower" `Quick
      test_weights_resident_never_slower;
    prop_sim_umm_equals_analytic;
    prop_sim_monotone_in_allocation;
    prop_sim_superset_pinning_monotone ]
