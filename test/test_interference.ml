(* Oracle for the interference graph: on seeded random graphs,
   [conflict] and [degree] (class ids, per-class sorted starts and ends,
   false-edge partner lists) must agree pair for pair with the naive
   definition — [Liveness.overlaps] on the item intervals, a pair in
   different never-share classes, or a false edge — before and after
   random false edges, some between items that already conflict. *)

module Metric = Lcmm.Metric
module Liveness = Lcmm.Liveness
module Interference = Lcmm.Interference
module Latency = Accel.Latency

let is_weight_item = function
  | Metric.Weight_of _ | Metric.Weight_slice _ -> true
  | Metric.Feature_value _ -> false

let never_share_class item = if is_weight_item item then 1 else 0

(* A third class: every third feature value never shares with the other
   features either. *)
let three_classes = function
  | Metric.Feature_value v when v mod 3 = 0 -> 2
  | item -> never_share_class item

(* Random false edges between distinct items, recorded in [forced] as
   ordered pairs.  Pairs are drawn blind, so some already conflict and
   some repeat an earlier edge. *)
let add_random_edges st g forced count =
  let n = Interference.item_count g in
  if n >= 2 then
    for _ = 1 to count do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i <> j then begin
        Interference.add_false_edge g i j;
        Hashtbl.replace forced (min i j, max i j) ()
      end
    done

(* [g] against the brute force, pair for pair and degree for degree:
   distinct items conflict when [differ i j], their intervals overlap
   or [forced] holds the pair. *)
let check_brute_force ~label ~differ intervals forced g =
  let n = Array.length intervals in
  for i = 0 to n - 1 do
    let expected_degree = ref 0 in
    for j = 0 to n - 1 do
      let expected =
        i <> j
        && (differ i j
           || Liveness.overlaps intervals.(i) intervals.(j)
           || Hashtbl.mem forced (min i j, max i j))
      in
      if expected then incr expected_degree;
      if Interference.conflict g i j <> expected then
        Alcotest.failf "%s: conflict disagrees at (%d,%d)" label i j
    done;
    if Interference.degree g i <> !expected_degree then
      Alcotest.failf "%s: degree mismatch at %d" label i
  done

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

let check_graph ?(classify = never_share_class) ~case items intervals =
  let n = Array.length items in
  let g = Interference.build ~never_share_class:classify ~items ~intervals () in
  let differ i j = classify items.(i) <> classify items.(j) in
  let forced = Hashtbl.create 16 in
  check_brute_force ~label:(Printf.sprintf "case %d" case) ~differ intervals
    forced g;
  (* Forcing apart the first non-conflicting pair must flip its
     conflict and degree. *)
  let free = ref None in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if !free = None && not (Interference.conflict g i j) then
        free := Some (i, j)
    done
  done;
  (match !free with
   | None -> ()
   | Some (i, j) ->
     let d_i = Interference.degree g i in
     Interference.add_false_edge g i j;
     Hashtbl.replace forced (i, j) ();
     if not (Interference.conflict g i j && Interference.conflict g j i)
     then Alcotest.failf "case %d: false edge (%d,%d) not reflected" case i j;
     if Interference.degree g i <> d_i + 1 then
       Alcotest.failf "case %d: false edge (%d,%d) degree not bumped" case i j);
  add_random_edges (Random.State.make [| 0x4e5; case; n |]) g forced (1 + (n / 8));
  check_brute_force
    ~label:(Printf.sprintf "case %d with false edges" case)
    ~differ intervals forced g

let test_oracle () =
  let cases = 200 in
  let checked = ref 0 in
  for case = 0 to cases - 1 do
    let st = Random.State.make [| 0x1f5; case |] in
    let g = Check.Gen.sized_graph st ~nodes:(8 + (case mod 33)) in
    let items, intervals = items_and_intervals g in
    checked := !checked + Array.length items;
    check_graph ~case items intervals;
    check_graph ~classify:three_classes ~case items intervals
  done;
  (* Guard against the oracle silently degenerating to empty item sets. *)
  Alcotest.(check bool) "checked a meaningful number of items" true (!checked > 1000)

(* Boundary shapes for the binary searches: duplicate intervals,
   touching endpoints, full-overlap nests.  A hand-built inverted
   interval (one [end_pos < start_pos]) is rejected. *)
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
  Alcotest.check_raises "inverted interval"
    (Invalid_argument "Interference.lifespans: interval 1 ends before it starts")
    (fun () ->
      check
        [| mk 0 4; { Liveness.start_pos = 6; end_pos = 2 }; mk 3 5; mk 7 9;
           mk 1 1 |])

(* Graphs of 150-400 items on every family, with and without prefetch
   sources, in the planner's two classes and in three. *)
let test_large_graphs () =
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
              check_graph ~case:((1000 * f) + nodes) items intervals;
              check_graph ~classify:three_classes ~case:((1000 * f) + nodes)
                items intervals)
            [ false; true ])
        [ 150; 260; 400 ])
    Check.Gen.families;
  Alcotest.(check bool) "graphs of over 186 items" true (!widest > 3 * 62);
  Alcotest.(check bool) "some weight lifespans start early" true
    (!early_weights > 0)

(* Many duplicate, touching and nested intervals over a short
   schedule. *)
let test_crowded_intervals () =
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

(* Random intervals over a short schedule (so many share a start or an
   end, touch or nest), in 1-3 classes drawn per item, must give the
   pairwise conflicts and degrees, before and after random false edges.
   Every seventh case spreads its positions far wider than its item
   count, and an offset keeps positions away from 0. *)
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
    let label = Printf.sprintf "case %d" case in
    let differ i j = class_of.(i) <> class_of.(j) in
    let forced = Hashtbl.create 16 in
    check_brute_force ~label ~differ intervals forced g;
    add_random_edges st g forced (Random.State.int st 17);
    check_brute_force ~label ~differ intervals forced g
  done;
  Alcotest.(check bool) "wide and multi-class cases ran" true
    (!wide > 10 && !multi > 100)

let suite =
  [ Alcotest.test_case "conflicts match the naive oracle" `Slow test_oracle;
    Alcotest.test_case "tied endpoints and 1-3 classes match the oracle" `Quick
      test_ties_and_classes;
    Alcotest.test_case "large graphs match the oracle" `Quick
      test_large_graphs;
    Alcotest.test_case "duplicate and touching intervals at word boundaries"
      `Quick test_crowded_intervals;
    Alcotest.test_case "boundary interval shapes" `Quick
      test_adversarial_intervals ]
