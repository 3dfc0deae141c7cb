(* Metric tables: the exact evaluator and marginal gains. *)

module Metric = Lcmm.Metric
module Latency = Accel.Latency

let fixture () = Helpers.metric_of (Helpers.inception_snippet ())

let test_affected_nodes () =
  let _, m = fixture () in
  (* C2's output value affects C2 (writer) and C3 (reader). *)
  Alcotest.(check (list int)) "feature" [ 2; 3 ]
    (List.sort compare (Metric.affected_nodes m (Metric.Feature_value 2)));
  (* C1's value is read by C6 through the concat. *)
  Alcotest.(check (list int)) "through concat" [ 1; 7 ]
    (List.sort compare (Metric.affected_nodes m (Metric.Feature_value 1)));
  Alcotest.(check (list int)) "weight" [ 3 ]
    (Metric.affected_nodes m (Metric.Weight_of 3));
  Alcotest.(check (list int)) "unknown item" []
    (Metric.affected_nodes m (Metric.Weight_of 0))

let test_total_latency_matches_umm () =
  let _, m = fixture () in
  Alcotest.(check (float 1e-12)) "empty allocation = UMM"
    (Latency.umm_total m.Metric.profiles)
    (Metric.total_latency m ~on_chip:Metric.Item_set.empty)

let test_marginal_gain_positive () =
  let _, m = fixture () in
  let items = Metric.eligible_items m ~memory_bound_only:false in
  Alcotest.(check bool) "has items" true (items <> []);
  List.iter
    (fun item ->
      let gain = Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty [ item ] in
      Alcotest.(check bool) "gain >= 0" true (gain >= 0.))
    items

let test_gain_equals_latency_delta () =
  let _, m = fixture () in
  let item = Metric.Feature_value 2 in
  let before = Metric.total_latency m ~on_chip:Metric.Item_set.empty in
  let after =
    Metric.total_latency m ~on_chip:(Metric.Item_set.singleton item)
  in
  Alcotest.(check (float 1e-12)) "marginal = delta" (before -. after)
    (Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty [ item ])

let test_gain_many_joint () =
  let _, m = fixture () in
  let items = [ Metric.Feature_value 2; Metric.Weight_of 3 ] in
  let joint = Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty items in
  let direct =
    Metric.total_latency m ~on_chip:Metric.Item_set.empty
    -. Metric.total_latency m ~on_chip:(Metric.Item_set.of_list items)
  in
  Alcotest.(check (float 1e-12)) "joint gain = delta" direct joint

let test_static_reduction_is_eq2 () =
  let _, m = fixture () in
  (* Eq. 2 is the marginal gain against the all-off-chip state.  For a
     node whose largest term is the weight stream, it is (wt - next
     largest term). *)
  let p = m.Metric.profiles.(3) in
  let if_sum = Array.fold_left ( +. ) 0. p.Latency.if_secs in
  let others = List.sort compare [ p.Latency.latc; if_sum; p.Latency.of_term ] in
  let next = List.nth others 2 in
  if p.Latency.wt_term > next then
    Alcotest.(check (float 1e-12)) "eq2"
      (p.Latency.wt_term -. next)
      (Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty
         [ Metric.Weight_of 3 ])

let test_eligibility () =
  let _, m = fixture () in
  let all = Metric.eligible_items m ~memory_bound_only:false in
  (* The input's value is never eligible (cannot avoid the first DMA). *)
  Alcotest.(check bool) "input excluded" false
    (List.mem (Metric.Feature_value 0) all);
  (* The sink's value has no consumers. *)
  Alcotest.(check bool) "sink excluded" false
    (List.mem (Metric.Feature_value 7) all);
  (* Weight items for every conv. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "w%d eligible" n)
        true
        (List.mem (Metric.Weight_of n) all))
    [ 1; 2; 3; 4; 5; 7 ];
  (* memory_bound_only is a subset. *)
  let bounded = Metric.eligible_items m ~memory_bound_only:true in
  List.iter
    (fun item ->
      Alcotest.(check bool) "subset" true (List.mem item all))
    bounded

let test_item_sizes () =
  let _, m = fixture () in
  (* Value 1 is 64x8x8 at i16. *)
  Alcotest.(check int) "feature size" (64 * 8 * 8 * 2)
    (Metric.item_size_bytes Tensor.Dtype.I16 m (Metric.Feature_value 1));
  (* Weight of C3: 128x96x3x3. *)
  Alcotest.(check int) "weight size" (128 * 96 * 9 * 2)
    (Metric.item_size_bytes Tensor.Dtype.I16 m (Metric.Weight_of 3));
  Alcotest.(check int) "no weights" 0
    (Metric.item_size_bytes Tensor.Dtype.I16 m (Metric.Weight_of 0))

let prop_latency_monotone =
  (* Adding items never increases total latency. *)
  Helpers.qtest ~count:40 "latency monotone in allocation"
    QCheck2.Gen.(pair Helpers.random_graph_gen (list_size (int_range 0 10) (int_range 0 1000)))
    (fun (g, picks) ->
      let _, m = Helpers.metric_of g in
      let items = Array.of_list (Metric.eligible_items m ~memory_bound_only:false) in
      if Array.length items = 0 then true
      else
        let subset =
          List.map (fun k -> items.(k mod Array.length items)) picks
          |> Metric.Item_set.of_list
        in
        let rest = Metric.Item_set.of_list (Array.to_list items) in
        let l0 = Metric.total_latency m ~on_chip:Metric.Item_set.empty in
        let l1 = Metric.total_latency m ~on_chip:subset in
        let l2 = Metric.total_latency m ~on_chip:rest in
        l2 <= l1 +. 1e-12 && l1 <= l0 +. 1e-12)

let prop_joint_gain_dominates_solo =
  (* The max-structure of Eq. 1 makes gains super-additive (the paper's
     pivot effect): pinning everything gains at least as much as any
     single item alone. *)
  Helpers.qtest ~count:40 "joint gain >= each solo gain"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let items = Metric.eligible_items m ~memory_bound_only:false in
      let joint = Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty items in
      List.for_all
        (fun it ->
          Metric.marginal_gain_many m ~on_chip:Metric.Item_set.empty [ it ]
          <= joint +. 1e-9)
        items)

(* Eq. 1 as the paper states it, folded over the profile's terms with
   on-chip membership read from the item set: the reference the kernel
   must match bit for bit.  A sliced weight streams the share of its
   slices left off chip. *)
let reference_latency m on_chip id =
  let p = m.Metric.profiles.(id) in
  let on it = Metric.Item_set.mem it on_chip in
  let k = m.Metric.slices.(id) in
  let wt =
    if p.Latency.wt_term <= 0. then 0.
    else if k = 1 then if on (Metric.Weight_of id) then 0. else p.Latency.wt_term
    else
      let off =
        List.length
          (List.filter
             (fun index ->
               not (on (Metric.Weight_slice { node = id; index; of_k = k })))
             (List.init k Fun.id))
      in
      p.Latency.wt_term *. float_of_int off /. float_of_int k
  in
  let if_time = ref 0. in
  Array.iteri
    (fun j v ->
      if not (on (Metric.Feature_value v)) then
        if_time := !if_time +. p.Latency.if_secs.(j))
    p.Latency.if_values;
  let if_time = !if_time in
  let of_time = if on (Metric.Feature_value id) then 0. else p.Latency.of_term in
  max p.Latency.latc (max if_time (max wt of_time))

(* The kernel and every item-set entry against [reference_latency], bit
   for bit: each node's latency, the whole-network total, the static
   gain of random item groups (DNNK's sort key) and the gain of adding
   random items to a random allocation (before a subset of after), on
   graphs of every generator family and on skip-family graphs of 100 to
   160 nodes, with whole and 3-way sliced weights. *)
let prop_dense_matches_item_sets =
  let bits = Int64.bits_of_float in
  let families = Array.of_list Check.Gen.families in
  Helpers.qtest ~count:60 "dense Eq. 1 = item-set Eq. 1, bit for bit"
    QCheck2.Gen.(
      quad (int_range 0 (Array.length families)) (oneofl [ 1; 3 ])
        (int_range 4 60) int)
    (fun (fam, slices, max_nodes, seed) ->
      let st = Random.State.make [| seed |] in
      let g =
        if fam = Array.length families then
          Check.Gen.sized_graph ~family:Check.Gen.Skip st
            ~nodes:(100 + Random.State.int st 61)
        else Check.Gen.graph ~family:families.(fam) st ~max_nodes
      in
      let m =
        Metric.build ~weight_slices:(fun _ -> slices) g
          (Latency.profile_graph (Helpers.default_config ()) g)
      in
      let items =
        Array.of_list (Metric.eligible_items m ~memory_bound_only:false)
      in
      let n_items = Array.length items in
      let picks k =
        List.init k (fun _ -> items.(Random.State.int st n_items))
      in
      let nodes = List.init m.Metric.node_count Fun.id in
      let mark_of on_chip =
        let mark = Metric.mark (Metric.item_count m) in
        Metric.mark_set m mark on_chip;
        mark
      in
      let reference_gain ~before ~after nodes =
        Array.fold_left
          (fun acc id ->
            acc +. reference_latency m before id -. reference_latency m after id)
          0. nodes
      in
      let latency_ok on_chip =
        let mark = mark_of on_chip in
        List.for_all
          (fun id ->
            bits (Metric.node_latency_on m mark id)
            = bits (reference_latency m on_chip id))
          nodes
        && bits (Metric.total_latency m ~on_chip)
           = bits
               (List.fold_left
                  (fun acc id -> acc +. reference_latency m on_chip id)
                  0. nodes)
      in
      let umm_ok id =
        bits (Metric.umm_latency m id)
        = bits (reference_latency m Metric.Item_set.empty id)
      in
      let static_ok members =
        let nodes = Metric.nodes_affected m members in
        let after = Metric.Item_set.of_list members in
        bits (Metric.static_gain_on m (mark_of after) nodes)
        = bits (reference_gain ~before:Metric.Item_set.empty ~after nodes)
      in
      let adding_ok (before, extra) =
        let after =
          List.fold_left (fun acc it -> Metric.Item_set.add it acc) before extra
        in
        let nodes = Metric.nodes_affected m extra in
        let expected = bits (reference_gain ~before ~after nodes) in
        let mark = mark_of before in
        let adding =
          List.map (Metric.item_index m) extra
          |> List.filter (fun i -> not (Metric.mem mark i))
        in
        bits (Metric.marginal_gain_many m ~on_chip:before extra) = expected
        && bits (Metric.swing_gain_on m mark adding nodes) = expected
        (* The swing leaves the mark as it found it. *)
        && bits (Metric.total_latency_on m mark)
           = bits (Metric.total_latency m ~on_chip:before)
      in
      let random_set () =
        Metric.Item_set.of_list (picks (Random.State.int st (n_items + 1)))
      in
      List.for_all umm_ok nodes
      && (n_items = 0
         || latency_ok (random_set ())
            && List.for_all static_ok
                 (List.init 8 (fun _ -> picks (1 + Random.State.int st 3)))
            && List.for_all adding_ok
                 (List.init 8 (fun _ ->
                      (random_set (), picks (1 + Random.State.int st 3))))))

(* The two-evaluation fold DNNK's compensation uses, against two
   separate kernel calls, bit for bit: every node under a
   random code per queried item (off, member only, or an earlier row's
   placement bit with or without membership) and random placement bits,
   with whole and 3-way sliced weights. *)
let prop_pair_fold_matches =
  let bits = Int64.bits_of_float in
  let families = Array.of_list Check.Gen.families in
  Helpers.qtest ~count:60 "two-evaluation fold = node_latency_on, bit for bit"
    QCheck2.Gen.(
      quad (int_range 0 (Array.length families - 1)) (oneofl [ 1; 3 ])
        (int_range 4 60) int)
    (fun (fam, slices, max_nodes, seed) ->
      let st = Random.State.make [| seed |] in
      let g = Check.Gen.graph ~family:families.(fam) st ~max_nodes in
      let m =
        Metric.build ~weight_slices:(fun _ -> slices) g
          (Latency.profile_graph (Helpers.default_config ()) g)
      in
      let rows = 6 and cols = 5 in
      let placement =
        Array.init rows (fun _ -> Array.init cols (fun _ -> Random.State.bool st))
      in
      let out = Array.make 2 0. in
      let node_ok id =
        (* One code per item index, so a repeated query agrees. *)
        let code_of = Hashtbl.create 8 in
        let queried = Metric.map_queried_ix m id Fun.id in
        Array.iter
          (fun ix ->
            if not (Hashtbl.mem code_of ix) then
              Hashtbl.add code_of ix
                (match Random.State.int st 4 with
                 | 0 -> `Off
                 | 1 -> `Member
                 | _ -> `Row (Random.State.int st rows, Random.State.bool st)))
          queried;
        let code ix =
          match Hashtbl.find code_of ix with
          | `Off -> Metric.code_off
          | `Member -> Metric.code_member
          | `Row (r, member) -> Metric.code_row r ~member
        in
        let codes = Array.map code queried in
        let col = Random.State.int st cols in
        let first = Metric.mark (Metric.item_count m)
        and second = Metric.mark (Metric.item_count m) in
        Hashtbl.iter
          (fun ix code ->
            match code with
            | `Row (r, member) ->
              if placement.(r).(col) then Metric.add first ix;
              if placement.(r).(col) || member then Metric.add second ix
            | `Member -> Metric.add second ix
            | `Off -> ())
          code_of;
        Metric.node_latency_pair_ix m id ~codes ~bits:placement ~col out;
        bits out.(0) = bits (Metric.node_latency_on m first id)
        && bits out.(1) = bits (Metric.node_latency_on m second id)
      in
      List.for_all
        (fun _ -> List.for_all node_ok (List.init m.Metric.node_count Fun.id))
        [ 1; 2; 3 ])

(* [Item_set]'s monomorphic order has the polymorphic compare's sign
   on every pair, so sets iterate (and folds over them sum) in the order
   they always did.  Small fields make equal and near-equal pairs
   common. *)
let prop_item_compare_sign =
  let item =
    QCheck2.Gen.(
      let small = int_range (-2) 4 in
      oneof
        [ map (fun v -> Metric.Feature_value v) small;
          map (fun n -> Metric.Weight_of n) small;
          map3
            (fun node index of_k -> Metric.Weight_slice { node; index; of_k })
            small small small ])
  in
  Helpers.qtest ~count:2000 "item compare has Stdlib.compare's sign"
    (QCheck2.Gen.pair item item)
    (fun (a, b) ->
      let set x = Metric.Item_set.singleton x in
      Int.compare (Metric.Item_set.compare (set a) (set b)) 0
      = Int.compare (compare a b) 0)

(* The kernel reads its input terms unchecked, so what makes those
   reads safe is checked up front: a mark smaller than the metric, a
   profile naming an input outside the graph and input-term arrays of
   different lengths are all refused. *)
let test_kernel_bounds () =
  let _, m = fixture () in
  Alcotest.check_raises "short mark"
    (Invalid_argument "Metric.node_latency_on: mark smaller than the metric")
    (fun () ->
      let short = Metric.mark (Metric.item_count m - 1) in
      ignore (Metric.node_latency_on m short 3));
  let with_node_3 f =
    Array.map
      (fun p -> if p.Latency.node_id = 3 then f p else p)
      m.Metric.profiles
  in
  let outside =
    with_node_3 (fun p ->
        { p with
          Latency.if_values =
            Array.append [| Array.length m.Metric.profiles |] p.Latency.if_values;
          if_secs = Array.append [| 1e-6 |] p.Latency.if_secs;
          if_bytes = Array.append [| 1 |] p.Latency.if_bytes })
  in
  Alcotest.check_raises "input outside the graph"
    (Invalid_argument "Metric.build: an input term outside the graph")
    (fun () -> ignore (Metric.build m.Metric.graph outside));
  let ragged =
    with_node_3 (fun p ->
        { p with Latency.if_secs = Array.append [| 1e-6 |] p.Latency.if_secs })
  in
  Alcotest.check_raises "input-term arrays of different lengths"
    (Invalid_argument "Metric.build: input terms of different lengths")
    (fun () -> ignore (Metric.build m.Metric.graph ragged))

(* The consumer and last-use tables [Metric.build] makes in one walk,
   against the graph walks [Values.consumers] and [Values.last_use]
   make per node, at every node (transparent ones included); and the
   source table the profile reads against [Values.source_values]. *)
let check_consumer_table label g =
  let _, m = Helpers.metric_of g in
  let n = Dnn_graph.Graph.node_count g in
  Alcotest.(check (array (array int))) (label ^ " sources")
    (Array.init n (fun id -> Array.of_list (Dnn_graph.Values.source_values g id)))
    (Dnn_graph.Values.source_table g);
  Alcotest.(check (array (list int))) (label ^ " consumers")
    (Array.init n (Dnn_graph.Values.consumers g)) m.Metric.consumers;
  Alcotest.(check (array int)) (label ^ " last uses")
    (Array.init n (Dnn_graph.Values.last_use g)) m.Metric.last_use

(* A concat feeding a concat, one value reached both directly and
   through both concats.  Nodes in id order: x; c1 and c2 read x;
   cat1 = [c1; c2]; c3 reads cat1; cat2 = [cat1; c3; c1]; out reads
   cat2. *)
let concat_of_concat () =
  let module B = Dnn_graph.Builder in
  let b = B.create () in
  let x = B.input b ~channels:8 ~height:8 ~width:8 () in
  let c1 = B.conv b ~kernel:(1, 1) ~out_channels:8 x in
  let c2 = B.conv b ~kernel:(3, 3) ~out_channels:8 x in
  let cat1 = B.concat b [ c1; c2 ] in
  let c3 = B.conv b ~kernel:(1, 1) ~out_channels:8 cat1 in
  let cat2 = B.concat b [ cat1; c3; c1 ] in
  let _out = B.conv b ~kernel:(1, 1) ~out_channels:8 cat2 in
  B.finish b

let test_consumer_table () =
  let g = concat_of_concat () in
  check_consumer_table "concat of concat" g;
  let _, m = Helpers.metric_of g in
  Alcotest.(check (list int)) "c1 read by c3 and out" [ 4; 6 ] m.Metric.consumers.(1);
  Alcotest.(check (list int)) "cat1 resolves to c3 and out" [ 4; 6 ]
    m.Metric.consumers.(3);
  Alcotest.(check int) "c2 lives to out" 6 m.Metric.last_use.(2);
  List.iter
    (fun e -> check_consumer_table e.Models.Zoo.model_name (e.Models.Zoo.build ()))
    Models.Zoo.all;
  List.iter
    (fun family ->
      for k = 0 to 39 do
        let st = Random.State.make [| 29; k |] in
        let max_nodes = 4 + Random.State.int st 120 in
        check_consumer_table
          (Printf.sprintf "%s #%d" (Check.Gen.family_name family) k)
          (Check.Gen.graph ~family st ~max_nodes)
      done)
    Check.Gen.families

let suite =
  [ Alcotest.test_case "affected nodes" `Quick test_affected_nodes;
    Alcotest.test_case "total latency = UMM when empty" `Quick test_total_latency_matches_umm;
    Alcotest.test_case "marginal gain positive" `Quick test_marginal_gain_positive;
    Alcotest.test_case "gain equals latency delta" `Quick test_gain_equals_latency_delta;
    Alcotest.test_case "joint gain" `Quick test_gain_many_joint;
    Alcotest.test_case "static reduction is Eq.2" `Quick test_static_reduction_is_eq2;
    Alcotest.test_case "eligibility" `Quick test_eligibility;
    Alcotest.test_case "item sizes" `Quick test_item_sizes;
    prop_latency_monotone;
    prop_joint_gain_dominates_solo;
    prop_dense_matches_item_sets;
    prop_pair_fold_matches;
    prop_item_compare_sign;
    Alcotest.test_case "kernel bounds checked" `Quick test_kernel_bounds;
    Alcotest.test_case "consumer table = graph walk" `Quick test_consumer_table ]
