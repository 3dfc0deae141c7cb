(* Oracle for the packed-bitset interference build: on seeded random
   graphs, the optimized adjacency rows (word-wise prefix overlap fill
   plus class-mask never-share folding) must agree pair for pair with the
   naive definition — [Liveness.overlaps] on the item intervals, or a
   cross-pool (feature vs weight) pair, built with the planner's
   partition classes. *)

module Metric = Lcmm.Metric
module Liveness = Lcmm.Liveness
module Interference = Lcmm.Interference
module Latency = Accel.Latency

let is_weight_item = function
  | Metric.Weight_of _ | Metric.Weight_slice _ -> true
  | Metric.Feature_value _ -> false

let never_share a b = is_weight_item a <> is_weight_item b

let never_share_class item = if is_weight_item item then 1 else 0

(* Items and intervals exactly as the planner derives them.  Without
   [prefetch] there is no PDG, so weight lifespans start at their
   consumer; with it a prefetched weight's lifespan starts at its PDG
   source node, before its consumer. *)
let items_and_intervals ?(prefetch = false) g =
  let config = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let profiles = Latency.profile_graph config g in
  let metric = Metric.build g profiles in
  let items =
    Array.of_list (Metric.eligible_items metric ~memory_bound_only:false)
  in
  let targets =
    Array.to_list items
    |> List.filter_map (function
         | Metric.Weight_of n | Metric.Weight_slice { node = n; _ } -> Some n
         | Metric.Feature_value _ -> None)
    |> List.sort_uniq compare
  in
  let prefetch_source =
    if (not prefetch) || targets = [] then fun _ -> None
    else
      Lcmm.Prefetch.source_of
        (Lcmm.Prefetch.build metric ~targets ~node_latency:(fun id ->
             Latency.umm_node_latency profiles.(id)))
  in
  let intervals = Array.map (Liveness.item_interval g ~prefetch_source) items in
  (items, intervals)

let check_graph ~case items intervals =
  let n = Array.length items in
  let g = Interference.build ~never_share_class ~items ~intervals () in
  for i = 0 to n - 1 do
    let expected_degree = ref 0 in
    for j = 0 to n - 1 do
      let expected =
        i <> j
        && (Liveness.overlaps intervals.(i) intervals.(j)
           || never_share items.(i) items.(j))
      in
      if expected then incr expected_degree;
      if Interference.conflict g i j <> expected then
        Alcotest.failf "case %d: build disagrees at (%d,%d)" case i j
    done;
    if Interference.degree g i <> !expected_degree then
      Alcotest.failf "case %d: degree mismatch at %d" case i
  done;
  (* False edges fold into the rows incrementally: forcing apart the
     first non-conflicting pair must flip its conflict and degree. *)
  let free = ref None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if !free = None && not (Interference.conflict g i j) then
        free := Some (i, j)
    done
  done;
  match !free with
  | None -> ()
  | Some (i, j) ->
    let d_i = Interference.degree g i in
    Interference.add_false_edge g i j;
    if not (Interference.conflict g i j && Interference.conflict g j i)
    then Alcotest.failf "case %d: false edge (%d,%d) not reflected" case i j;
    if Interference.degree g i <> d_i + 1 then
      Alcotest.failf "case %d: false edge (%d,%d) degree not bumped" case i j

let test_oracle () =
  let cases = 200 in
  let checked = ref 0 in
  for case = 0 to cases - 1 do
    let st = Random.State.make [| 0x1f5; case |] in
    let g = Check.Gen.sized_graph st ~nodes:(8 + (case mod 33)) in
    let items, intervals = items_and_intervals g in
    checked := !checked + Array.length items;
    check_graph ~case items intervals
  done;
  (* Guard against the oracle silently degenerating to empty item sets. *)
  Alcotest.(check bool) "checked a meaningful number of items" true (!checked > 1000)

(* Boundary shapes for the prefix fill: duplicate intervals, touching
   endpoints, full-overlap nests.  Inverted hand-built intervals (one
   [end_pos < start_pos]) take the naive pairwise fallback, which must
   still follow [Liveness.overlaps]. *)
let test_adversarial_intervals () =
  let mk s e = Liveness.make ~start_pos:s ~end_pos:e in
  let check intervals =
    let items =
      Array.init (Array.length intervals) (fun i -> Metric.Feature_value i)
    in
    let g = Interference.build ~items ~intervals () in
    let n = Array.length intervals in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let expected = i <> j && Liveness.overlaps intervals.(i) intervals.(j) in
        Alcotest.(check bool)
          (Printf.sprintf "pair (%d,%d)" i j)
          expected
          (Interference.conflict g i j)
      done
    done
  in
  check [| mk 0 4; mk 0 4; mk 4 4; mk 5 9; mk 2 7; mk 0 9; mk 8 8 |];
  check
    [| mk 0 4; { Liveness.start_pos = 6; end_pos = 2 }; mk 3 5; mk 7 9;
       mk 1 1 |]

(* Rows of 150-400 items span several 62-bit words, so the word-wise
   prefix fill is checked across word boundaries, on every family, with
   and without prefetch sources. *)
let test_multiword_rows () =
  let early_weights = ref 0 and widest = ref 0 in
  List.iteri
    (fun f family ->
      List.iter
        (fun nodes ->
          let g =
            Check.Gen.sized_graph ~family
              (Random.State.make [| 0x2e1; f; nodes |])
              ~nodes
          in
          List.iter
            (fun prefetch ->
              let items, intervals = items_and_intervals ~prefetch g in
              widest := max !widest (Array.length items);
              if prefetch then
                Array.iteri
                  (fun i item ->
                    match item with
                    | Metric.Weight_of n | Metric.Weight_slice { node = n; _ } ->
                      if intervals.(i).Liveness.start_pos < n then
                        incr early_weights
                    | Metric.Feature_value _ -> ())
                  items;
              check_graph ~case:((1000 * f) + nodes) items intervals)
            [ false; true ])
        [ 150; 260; 400 ])
    Check.Gen.families;
  Alcotest.(check bool) "rows span several words" true (!widest > 3 * 62);
  Alcotest.(check bool) "some weight lifespans start early" true
    (!early_weights > 0)

(* Many duplicate and touching intervals over a short schedule, with
   equal or abutting pairs placed on both sides of each word boundary. *)
let test_word_boundary_intervals () =
  let n = 200 in
  let st = Random.State.make [| 0x3c7 |] in
  let intervals =
    Array.init n (fun _ ->
        let s = Random.State.int st 24 in
        Liveness.make ~start_pos:s ~end_pos:(s + Random.State.int st 4))
  in
  List.iter
    (fun w ->
      (* Duplicate across the boundary, then touching endpoints. *)
      intervals.(w) <- intervals.(w - 1);
      let e = intervals.(w).Liveness.end_pos in
      intervals.(w + 1) <- Liveness.make ~start_pos:e ~end_pos:(e + 2);
      intervals.(w - 2) <-
        Liveness.make
          ~start_pos:(max 0 (intervals.(w - 1).Liveness.start_pos - 3))
          ~end_pos:intervals.(w - 1).Liveness.start_pos)
    [ 62; 124; 186 ];
  let items = Array.init n (fun i -> Metric.Feature_value i) in
  check_graph ~case:0 items intervals

(* The interval orders come from a counting sort over schedule
   positions and the never-share classes from one complement mask per
   class; neither may change a bit.  Random intervals over a short
   schedule (so many share a start or an end), in 1-3 classes drawn per
   item, must give the pairwise rows.  Every seventh case spreads its
   positions far wider than its item count, which takes the comparison
   sort, and an offset keeps positions away from 0. *)
let test_ties_and_classes () =
  let wide = ref 0 and multi = ref 0 in
  for case = 0 to 299 do
    let st = Random.State.make [| 0x7135; case |] in
    let n = 1 + Random.State.int st 160 in
    let span =
      if case mod 7 = 0 then (incr wide; 100_000) else 1 + Random.State.int st 12
    in
    let offset = Random.State.int st 50 in
    let classes = 1 + Random.State.int st 3 in
    if classes > 1 then incr multi;
    let intervals =
      Array.init n (fun _ ->
          let a = Random.State.int st span and b = Random.State.int st span in
          Liveness.make ~start_pos:(offset + min a b)
            ~end_pos:(offset + max a b))
    in
    (* Class ids far apart and unordered, so nothing reads them as
       indices. *)
    let class_of = Array.init n (fun _ -> 37 * Random.State.int st classes) in
    let items = Array.init n (fun i -> Metric.Feature_value i) in
    let never_share_class = function
      | Metric.Feature_value i -> class_of.(i)
      | Metric.Weight_of _ | Metric.Weight_slice _ -> assert false
    in
    let g = Interference.build ~never_share_class ~items ~intervals () in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let expected =
          i <> j
          && (Liveness.overlaps intervals.(i) intervals.(j)
             || class_of.(i) <> class_of.(j))
        in
        if Interference.conflict g i j <> expected then
          Alcotest.failf "case %d: rows disagree at (%d,%d)" case i j
      done
    done
  done;
  Alcotest.(check bool) "wide and multi-class cases ran" true
    (!wide > 10 && !multi > 100)

let suite =
  [ Alcotest.test_case "bitset rows match naive overlap oracle" `Slow test_oracle;
    Alcotest.test_case "tied endpoints and 1-3 classes match the oracle" `Quick
      test_ties_and_classes;
    Alcotest.test_case "multi-word rows match the oracle" `Quick
      test_multiword_rows;
    Alcotest.test_case "duplicate and touching intervals at word boundaries"
      `Quick test_word_boundary_intervals;
    Alcotest.test_case "boundary interval shapes" `Quick
      test_adversarial_intervals ]
