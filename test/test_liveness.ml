(* Lifespans, interference and buffer coloring. *)

module L = Lcmm.Liveness
module Metric = Lcmm.Metric

let test_intervals () =
  let i = L.make ~start_pos:2 ~end_pos:5 in
  Alcotest.(check bool) "overlap self" true (L.overlaps i i);
  Alcotest.(check bool) "contained" true
    (L.overlaps i (L.make ~start_pos:3 ~end_pos:4));
  Alcotest.(check bool) "touching endpoints overlap" true
    (L.overlaps i (L.make ~start_pos:5 ~end_pos:9));
  Alcotest.(check bool) "disjoint" false
    (L.overlaps i (L.make ~start_pos:6 ~end_pos:9));
  Alcotest.check_raises "inverted" (Invalid_argument "Liveness.make: end before start")
    (fun () -> ignore (L.make ~start_pos:3 ~end_pos:2))

let test_feature_intervals () =
  let g = Helpers.inception_snippet () in
  (* C2's output (value 2) is consumed only by C3 (node 3). *)
  let i2 = L.feature_interval g 2 in
  Alcotest.(check int) "start" 2 i2.L.start_pos;
  Alcotest.(check int) "end" 3 i2.L.end_pos;
  (* C1's output is consumed by C6 (7) through the concat. *)
  let i1 = L.feature_interval g 1 in
  Alcotest.(check int) "through concat" 7 i1.L.end_pos;
  (* Disjoint: f2 dies at 3, f4 born at 4. *)
  Alcotest.(check bool) "f2/f4 disjoint" false
    (L.overlaps i2 (L.feature_interval g 4))

let test_item_intervals () =
  let g = Helpers.inception_snippet () in
  let no_prefetch _ = None in
  let w = L.item_interval g ~prefetch_source:no_prefetch (Metric.Weight_of 3) in
  Alcotest.(check int) "weight without pdg starts at node" 3 w.L.start_pos;
  let w' =
    L.item_interval g ~prefetch_source:(fun _ -> Some 1) (Metric.Weight_of 3)
  in
  Alcotest.(check int) "weight with pdg starts at source" 1 w'.L.start_pos;
  Alcotest.(check int) "weight ends at node" 3 w'.L.end_pos

let prop_overlap_symmetric =
  Helpers.qtest "overlap is symmetric"
    (QCheck2.Gen.pair Helpers.interval_gen Helpers.interval_gen)
    (fun (a, b) -> L.overlaps a b = L.overlaps b a)

let prop_overlap_reflexive =
  Helpers.qtest "overlap is reflexive" Helpers.interval_gen (fun i -> L.overlaps i i)

(* --- interference --- *)

let build_interference intervals =
  let items = Array.mapi (fun i _ -> Metric.Feature_value i) intervals in
  Lcmm.Interference.build ~items ~intervals ()

let test_interference () =
  let g =
    build_interference
      [| L.make ~start_pos:0 ~end_pos:2; L.make ~start_pos:1 ~end_pos:3;
         L.make ~start_pos:4 ~end_pos:5 |]
  in
  Alcotest.(check bool) "0-1 conflict" true (Lcmm.Interference.conflict g 0 1);
  Alcotest.(check bool) "0-2 free" false (Lcmm.Interference.conflict g 0 2);
  Alcotest.(check bool) "no self conflict" false (Lcmm.Interference.conflict g 1 1);
  Alcotest.(check int) "degree" 1 (Lcmm.Interference.degree g 0);
  Lcmm.Interference.add_false_edge g 0 2;
  Alcotest.(check bool) "false edge forces conflict" true
    (Lcmm.Interference.conflict g 0 2);
  (* Adding the same edge again, either way round, changes nothing. *)
  Lcmm.Interference.add_false_edge g 0 2;
  Lcmm.Interference.add_false_edge g 2 0;
  Alcotest.(check (pair int int)) "false edge counted once" (2, 1)
    (Lcmm.Interference.degree g 0, Lcmm.Interference.degree g 2);
  Alcotest.check_raises "self false edge"
    (Invalid_argument "Interference.add_false_edge: self edge") (fun () ->
      Lcmm.Interference.add_false_edge g 1 1)

let test_never_share () =
  let items = [| Metric.Feature_value 0; Metric.Weight_of 1 |] in
  let intervals = [| L.make ~start_pos:0 ~end_pos:0; L.make ~start_pos:5 ~end_pos:5 |] in
  let is_weight = function
    | Metric.Weight_of _ | Metric.Weight_slice _ -> true
    | Metric.Feature_value _ -> false
  in
  let never_share_class item = if is_weight item then 1 else 0 in
  let g = Lcmm.Interference.build ~never_share_class ~items ~intervals () in
  Alcotest.(check bool) "cross-kind conflict despite disjoint lifespans" true
    (Lcmm.Interference.conflict g 0 1)

(* --- coloring --- *)

let color_valid interference sizes buffers =
  (* No two members of one buffer may conflict; every item appears once. *)
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun vb ->
      let idxs =
        List.map
          (fun item ->
            let rec find i =
              if i >= Lcmm.Interference.item_count interference then -1
              else if Lcmm.Interference.item interference i = item then i
              else find (i + 1)
            in
            find 0)
          vb.Lcmm.Vbuffer.members
      in
      List.iter (fun i -> Hashtbl.replace seen i ()) idxs;
      let rec pairs = function
        | [] -> true
        | x :: rest ->
          List.for_all (fun y -> not (Lcmm.Interference.conflict interference x y)) rest
          && pairs rest
      in
      pairs idxs
      && vb.Lcmm.Vbuffer.size_bytes
         = List.fold_left (fun m i -> max m sizes.(i)) 0 idxs)
    buffers
  && Hashtbl.length seen = Array.length sizes

let test_coloring_shares_disjoint () =
  let intervals =
    [| L.make ~start_pos:0 ~end_pos:1; L.make ~start_pos:2 ~end_pos:3;
       L.make ~start_pos:1 ~end_pos:2 |]
  in
  let g = build_interference intervals in
  let sizes = [| 100; 80; 50 |] in
  let buffers = Lcmm.Coloring.color g ~sizes in
  (* Items 0 and 1 are disjoint and share; 2 overlaps both. *)
  Alcotest.(check int) "two buffers" 2 (List.length buffers);
  Alcotest.(check bool) "valid" true (color_valid g sizes buffers);
  Alcotest.(check int) "total = 100 + 50" 150 (Lcmm.Coloring.total_bytes buffers)

let test_coloring_strategies () =
  let intervals =
    Array.init 8 (fun i -> L.make ~start_pos:(i mod 4) ~end_pos:((i mod 4) + 1))
  in
  let g = build_interference intervals in
  let sizes = Array.init 8 (fun i -> 10 + i) in
  List.iter
    (fun strategy ->
      let buffers = Lcmm.Coloring.color ~strategy g ~sizes in
      Alcotest.(check bool) "valid coloring" true (color_valid g sizes buffers))
    [ Lcmm.Coloring.Min_growth; Lcmm.Coloring.First_fit ]

let prop_coloring_valid =
  let gen = QCheck2.Gen.(list_size (int_range 1 20) (pair Helpers.interval_gen (int_range 1 1000))) in
  Helpers.qtest "coloring is always a valid partition" gen (fun entries ->
      let intervals = Array.of_list (List.map fst entries) in
      let sizes = Array.of_list (List.map snd entries) in
      let g = build_interference intervals in
      let buffers = Lcmm.Coloring.color g ~sizes in
      color_valid g sizes buffers)

let prop_coloring_no_worse_than_no_sharing =
  let gen = QCheck2.Gen.(list_size (int_range 1 20) (pair Helpers.interval_gen (int_range 1 1000))) in
  Helpers.qtest "sharing never exceeds per-item total" gen (fun entries ->
      let intervals = Array.of_list (List.map fst entries) in
      let sizes = Array.of_list (List.map snd entries) in
      let g = build_interference intervals in
      let buffers = Lcmm.Coloring.color g ~sizes in
      Lcmm.Coloring.total_bytes buffers <= Array.fold_left ( + ) 0 sizes)

let suite =
  [ Alcotest.test_case "intervals" `Quick test_intervals;
    Alcotest.test_case "feature intervals" `Quick test_feature_intervals;
    Alcotest.test_case "item intervals" `Quick test_item_intervals;
    prop_overlap_symmetric;
    prop_overlap_reflexive;
    Alcotest.test_case "interference" `Quick test_interference;
    Alcotest.test_case "never share" `Quick test_never_share;
    Alcotest.test_case "coloring shares disjoint" `Quick test_coloring_shares_disjoint;
    Alcotest.test_case "coloring strategies" `Quick test_coloring_strategies;
    prop_coloring_valid;
    prop_coloring_no_worse_than_no_sharing ]
