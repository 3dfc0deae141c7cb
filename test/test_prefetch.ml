(* The prefetching dependence graph (paper section 3.2). *)

module Metric = Lcmm.Metric
module Prefetch = Lcmm.Prefetch
module Latency = Accel.Latency

let fixture () =
  let _, m = Helpers.metric_of (Helpers.inception_snippet ()) in
  let node_latency id = Latency.umm_node_latency m.Metric.profiles.(id) in
  (m, node_latency)

let test_backtrace_hides_load () =
  let m, node_latency = fixture () in
  let pdg = Prefetch.build m ~targets:[ 5; 7 ] ~node_latency in
  List.iter
    (fun e ->
      (* Either the elapsed time from the source to the target covers the
         load, or the source is node 0 and the stall is the shortfall. *)
      let elapsed = ref 0. in
      for id = e.Prefetch.source to e.Prefetch.target - 1 do
        elapsed := !elapsed +. node_latency id
      done;
      if e.Prefetch.stall_seconds = 0. then
        Alcotest.(check bool) "elapsed covers load" true
          (!elapsed >= e.Prefetch.load_seconds -. 1e-12)
      else begin
        Alcotest.(check int) "stalling edges start at 0" 0 e.Prefetch.source;
        Alcotest.(check (float 1e-9)) "stall is the shortfall"
          (e.Prefetch.load_seconds -. !elapsed)
          e.Prefetch.stall_seconds
      end)
    (Prefetch.edges pdg)

let test_source_is_latest () =
  let m, node_latency = fixture () in
  let pdg = Prefetch.build m ~targets:[ 7 ] ~node_latency in
  match List.find_opt (fun e -> e.Prefetch.target = 7) (Prefetch.edges pdg) with
  | None -> Alcotest.fail "edge missing"
  | Some e ->
    if e.Prefetch.source > 0 && e.Prefetch.stall_seconds = 0. then begin
      (* Starting one node later would not leave enough time. *)
      let elapsed = ref 0. in
      for id = e.Prefetch.source + 1 to 6 do
        elapsed := !elapsed +. node_latency id
      done;
      Alcotest.(check bool) "source is as late as possible" true
        (!elapsed < e.Prefetch.load_seconds)
    end

let test_early_node_stalls () =
  let m, node_latency = fixture () in
  (* Node 1 is the first conv: nothing can hide its weight load. *)
  let pdg = Prefetch.build m ~targets:[ 1 ] ~node_latency in
  Alcotest.(check bool) "stall positive" true (Prefetch.stall_seconds pdg 1 > 0.);
  Alcotest.(check (option int)) "source 0" (Some 0) (Prefetch.source_of pdg 1);
  Alcotest.(check (float 1e-12)) "total stall" (Prefetch.stall_seconds pdg 1)
    (List.fold_left
       (fun acc e -> acc +. e.Prefetch.stall_seconds)
       0. (Prefetch.edges pdg))

let test_unknown_target () =
  let m, node_latency = fixture () in
  let pdg = Prefetch.build m ~targets:[ 7 ] ~node_latency in
  Alcotest.(check (option int)) "not a target" None (Prefetch.source_of pdg 3);
  Alcotest.(check (float 0.)) "no stall" 0. (Prefetch.stall_seconds pdg 3)

let test_rejects_weightless () =
  let m, node_latency = fixture () in
  Alcotest.check_raises "node 0 has no weights"
    (Invalid_argument "Prefetch.build: node 0 has no weight tensor") (fun () ->
      ignore (Prefetch.build m ~targets:[ 0 ] ~node_latency))

let prop_edges_well_formed =
  Helpers.qtest ~count:40 "PDG edges well formed on random graphs"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let targets =
        Metric.eligible_items m ~memory_bound_only:false
        |> List.filter_map (function
             | Metric.Weight_of n | Metric.Weight_slice { node = n; _ } -> Some n
             | Metric.Feature_value _ -> None)
      in
      let node_latency id = Latency.umm_node_latency m.Metric.profiles.(id) in
      let pdg = Prefetch.build m ~targets ~node_latency in
      List.for_all
        (fun e ->
          e.Prefetch.source >= 0
          && e.Prefetch.source <= e.Prefetch.target
          && e.Prefetch.stall_seconds >= 0.
          && e.Prefetch.load_seconds > 0.)
        (Prefetch.edges pdg))

let suite =
  [ Alcotest.test_case "backtrace hides load" `Quick test_backtrace_hides_load;
    Alcotest.test_case "source is latest" `Quick test_source_is_latest;
    Alcotest.test_case "early node stalls" `Quick test_early_node_stalls;
    Alcotest.test_case "unknown target" `Quick test_unknown_target;
    Alcotest.test_case "rejects weightless" `Quick test_rejects_weightless;
    prop_edges_well_formed ]
