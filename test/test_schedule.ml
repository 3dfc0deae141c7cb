(* Topological schedules and memory-aware reordering. *)

module Schedule = Dnn_graph.Schedule
module G = Dnn_graph.Graph

let dtype = Tensor.Dtype.I16

(* A schedule is valid when [Schedule.apply] accepts it. *)
let is_valid g order =
  match Schedule.apply g order with
  | _ -> true
  | exception Invalid_argument _ -> false

let test_default_valid () =
  let g = Helpers.diamond () in
  let order = Schedule.default g in
  Alcotest.(check bool) "valid" true (is_valid g order);
  Alcotest.(check int) "identity" 0 order.(0)

let test_invalid_schedules () =
  let g = Helpers.diamond () in
  let n = G.node_count g in
  Alcotest.(check bool) "wrong length" false (is_valid g [| 0 |]);
  Alcotest.(check bool) "duplicate" false
    (is_valid g (Array.make n 0));
  let reversed = Array.init n (fun i -> n - 1 - i) in
  Alcotest.(check bool) "reversed breaks deps" false (is_valid g reversed)

let test_memory_aware_valid () =
  List.iter
    (fun g ->
      let order = Schedule.memory_aware dtype g in
      Alcotest.(check bool) "valid" true (is_valid g order))
    [ Helpers.chain (); Helpers.diamond (); Helpers.inception_snippet ();
      Models.Zoo.build "googlenet"; Models.Zoo.build "densenet121" ]

let test_peak_live_bytes () =
  (* On a pure chain, exactly producer+consumer are live at each conv:
     peak = largest adjacent pair. *)
  let g = Helpers.chain () in
  let peak = Schedule.peak_live_bytes dtype g (Schedule.default g) in
  let vb id = Dnn_graph.Analysis.value_bytes dtype g id in
  let expected = max (vb 0 + vb 1) (max (vb 1 + vb 2) (vb 2 + vb 3)) in
  Alcotest.(check int) "chain peak" expected peak

let test_memory_aware_helps_or_ties () =
  List.iter
    (fun (name, g) ->
      let base = Schedule.peak_live_bytes dtype g (Schedule.default g) in
      let tuned = Schedule.peak_live_bytes dtype g (Schedule.memory_aware dtype g) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d <= %d" name tuned base)
        true (tuned <= base))
    [ ("snippet", Helpers.inception_snippet ());
      ("googlenet", Models.Zoo.build "googlenet");
      ("densenet", Models.Zoo.build "densenet121") ]

let test_apply_renumbers () =
  let g = Helpers.inception_snippet () in
  let order = Schedule.memory_aware dtype g in
  let g' = Schedule.apply g order in
  Alcotest.(check int) "same node count" (G.node_count g) (G.node_count g');
  Alcotest.(check int) "same macs" (G.total_macs g) (G.total_macs g');
  (* Node at slot k of the new graph is the old order.(k). *)
  Array.iteri
    (fun slot old_id ->
      Alcotest.(check string) "name preserved"
        (G.node g old_id).G.node_name
        (G.node g' slot).G.node_name)
    order;
  Alcotest.check_raises "invalid apply"
    (Invalid_argument "Schedule.apply: invalid schedule") (fun () ->
      ignore (Schedule.apply g [| 0 |]))

let test_apply_preserves_lcmm_semantics () =
  (* UMM latency is schedule-invariant (it is a sum over nodes). *)
  let g = Helpers.inception_snippet () in
  let g' = Schedule.apply g (Schedule.memory_aware dtype g) in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let umm gg = Accel.Latency.umm_total (Accel.Latency.profile_graph cfg gg) in
  Alcotest.(check (float 1e-12)) "umm invariant" (umm g) (umm g')

let test_breadth_first () =
  List.iter
    (fun g ->
      let order = Schedule.breadth_first g in
      Alcotest.(check bool) "valid" true (is_valid g order))
    [ Helpers.diamond (); Models.Zoo.build "googlenet" ]

let test_live_area () =
  let g = Helpers.chain () in
  (* On a chain every value is live exactly [def, next] => area is the sum
     of 2 slots per value except the sink (1 slot). *)
  let vb id = Dnn_graph.Analysis.value_bytes dtype g id in
  let expected = (2 * (vb 0 + vb 1 + vb 2)) + vb 3 in
  Alcotest.(check int) "chain area" expected
    (Schedule.live_area dtype g (Schedule.default g));
  (* Reordering googlenet with the memory-aware heuristic should not
     increase the area relative to level order. *)
  let gn = Models.Zoo.build "googlenet" in
  Alcotest.(check bool) "mem-aware area <= bfs area" true
    (Schedule.live_area dtype gn (Schedule.memory_aware dtype gn)
    <= Schedule.live_area dtype gn (Schedule.breadth_first gn))

let prop_memory_aware_valid =
  Helpers.qtest ~count:40 "memory-aware schedules of random graphs are valid"
    Helpers.random_graph_gen (fun g ->
      is_valid g (Schedule.memory_aware dtype g))

let prop_apply_roundtrip =
  Helpers.qtest ~count:30 "apply preserves structure on random graphs"
    Helpers.random_graph_gen (fun g ->
      let order = Schedule.memory_aware dtype g in
      let g' = Schedule.apply g order in
      G.total_macs g = G.total_macs g'
      && Dnn_graph.Analysis.total_feature_bytes dtype g
         = Dnn_graph.Analysis.total_feature_bytes dtype g')

let prop_peak_positive =
  Helpers.qtest ~count:30 "peak live bytes positive and schedule-bounded"
    Helpers.random_graph_gen (fun g ->
      let peak = Schedule.peak_live_bytes dtype g (Schedule.default g) in
      let total = Dnn_graph.Analysis.total_feature_bytes dtype g in
      peak > 0 && peak <= total)

let suite =
  [ Alcotest.test_case "default valid" `Quick test_default_valid;
    Alcotest.test_case "invalid schedules" `Quick test_invalid_schedules;
    Alcotest.test_case "memory-aware valid" `Quick test_memory_aware_valid;
    Alcotest.test_case "peak live bytes" `Quick test_peak_live_bytes;
    Alcotest.test_case "memory-aware helps or ties" `Quick test_memory_aware_helps_or_ties;
    Alcotest.test_case "apply renumbers" `Quick test_apply_renumbers;
    Alcotest.test_case "apply preserves semantics" `Quick test_apply_preserves_lcmm_semantics;
    Alcotest.test_case "breadth first" `Quick test_breadth_first;
    Alcotest.test_case "live area" `Quick test_live_area;
    prop_memory_aware_valid;
    prop_apply_roundtrip;
    prop_peak_positive ]
