(* The DNNK allocator: capacity discipline, pivot compensation, and
   optimality against exact enumeration on small problems. *)

module Metric = Lcmm.Metric
module Dnnk = Lcmm.Dnnk
module Vbuffer = Lcmm.Vbuffer
module Policies = Lcmm.Policies

let dtype = Tensor.Dtype.I16

(* Virtual buffers for a graph: one singleton buffer per eligible item
   (sharing is exercised separately in the coloring tests). *)
let singleton_vbufs m =
  Metric.eligible_items m ~memory_bound_only:false
  |> List.mapi (fun i item ->
         Vbuffer.singleton ~vbuf_id:i item
           ~size_bytes:(Metric.item_size_bytes dtype m item))

let test_respects_capacity () =
  let _, m = Helpers.metric_of (Helpers.inception_snippet ()) in
  let vbufs = singleton_vbufs m in
  List.iter
    (fun capacity_bytes ->
      let r = Dnnk.allocate m ~capacity_bytes vbufs in
      Alcotest.(check bool) "within capacity" true
        (r.Dnnk.used_blocks <= r.Dnnk.capacity_blocks);
      Alcotest.(check int) "partition"
        (List.length vbufs)
        (List.length r.Dnnk.chosen + List.length r.Dnnk.spilled))
    [ 0; 64 * 1024; 512 * 1024; 16 * 1024 * 1024 ]

let test_zero_capacity_chooses_nothing () =
  let _, m = Helpers.metric_of (Helpers.inception_snippet ()) in
  let r = Dnnk.allocate m ~capacity_bytes:0 (singleton_vbufs m) in
  Alcotest.(check int) "nothing chosen" 0 (List.length r.Dnnk.chosen);
  Alcotest.(check (float 1e-12)) "latency = UMM"
    (Accel.Latency.umm_total m.Metric.profiles)
    r.Dnnk.predicted_latency

let test_ample_capacity_takes_all_useful () =
  let _, m = Helpers.metric_of (Helpers.inception_snippet ()) in
  let vbufs = singleton_vbufs m in
  let r = Dnnk.allocate m ~capacity_bytes:(256 * 1024 * 1024) vbufs in
  (* With unlimited space, predicted latency equals the all-pinned bound. *)
  let everything =
    Metric.Item_set.of_list (List.concat_map (fun vb -> vb.Vbuffer.members) vbufs)
  in
  Alcotest.(check (float 1e-12)) "reaches all-pinned latency"
    (Metric.total_latency m ~on_chip:everything)
    r.Dnnk.predicted_latency

let test_negative_capacity_rejected () =
  let _, m = Helpers.metric_of (Helpers.chain ()) in
  Alcotest.check_raises "negative" (Invalid_argument "Dnnk.allocate: negative capacity")
    (fun () -> ignore (Dnnk.allocate m ~capacity_bytes:(-1) []))

let test_blocks_of_bytes () =
  Alcotest.(check int) "zero" 0 (Dnnk.blocks_of_bytes 0);
  Alcotest.(check int) "one byte" 1 (Dnnk.blocks_of_bytes 1);
  Alcotest.(check int) "exact block" 1 (Dnnk.blocks_of_bytes Dnnk.block_bytes);
  Alcotest.(check int) "block + 1" 2 (Dnnk.blocks_of_bytes (Dnnk.block_bytes + 1))

let test_pivot_compensation_counts_once () =
  (* The paper's running example: a node with several memory terms.  The
     gain of pinning both input and weights must equal the exact joint
     gain, not the sum of the optimistic solo gains. *)
  let _, m = Helpers.metric_of (Helpers.inception_snippet ()) in
  let items = [ Metric.Feature_value 2; Metric.Weight_of 3 ] in
  let sized =
    List.mapi
      (fun i it ->
        Vbuffer.singleton ~vbuf_id:i it
          ~size_bytes:(Metric.item_size_bytes dtype m it))
      items
  in
  let r = Dnnk.allocate m ~capacity_bytes:(64 * 1024 * 1024) sized in
  let exact =
    Metric.total_latency m ~on_chip:(Metric.Item_set.of_list items)
  in
  Alcotest.(check (float 1e-12)) "DP latency is exact for its choice" exact
    r.Dnnk.predicted_latency

(* Buffers from the coloring pass never share an item, so only a
   hand-built input reaches the allocator's shared-item fallback (owner
   table last-writer-wins, membership by list scan).  Feature value 2
   sits in two multi-member buffers next to the singletons, at a
   capacity that forces the DP.  The chosen ids and the exact latency
   bits are pinned. *)
let test_shared_item_fallback_pinned () =
  let _, m = Helpers.metric_of (Helpers.inception_snippet ()) in
  let singles = singleton_vbufs m in
  let sized id items =
    Vbuffer.make ~vbuf_id:id
      ~sized_members:
        (List.map (fun it -> (it, Metric.item_size_bytes dtype m it)) items)
  in
  let n = List.length singles in
  let vbufs =
    singles
    @ [ sized n [ Metric.Feature_value 2; Metric.Weight_of 3 ];
        sized (n + 1) [ Metric.Feature_value 4; Metric.Feature_value 2 ] ]
  in
  List.iter
    (fun (compensation, capacity_bytes, ids, bits) ->
      let r = Dnnk.allocate ~compensation m ~capacity_bytes vbufs in
      let chosen =
        List.sort compare (List.map (fun vb -> vb.Vbuffer.vbuf_id) r.Dnnk.chosen)
      in
      Alcotest.(check (list int)) "chosen ids" ids chosen;
      Alcotest.(check int64) "latency bits" bits
        (Int64.bits_of_float r.Dnnk.predicted_latency))
    [ (Dnnk.Table_approx, 1024 * 1024, [ 0; 2; 4; 7; 9; 10; 11 ],
       4541140220162887710L);
      (Dnnk.Table_approx, 512 * 1024, [ 2; 7; 9 ], 4542882998269661032L);
      (Dnnk.Exact_iterative, 1024 * 1024, [ 0; 2; 4; 7; 9; 10; 11 ],
       4541140220162887710L);
      (Dnnk.Exact_iterative, 512 * 1024, [ 0; 2; 4; 7; 10 ],
       4542135290243206671L) ]

(* A workspace is scratch only: one workspace carried across graphs and
   capacities must answer every call exactly as a cold run does. *)
let test_workspace_reuse_across_metrics () =
  let ws = Dnnk.workspace () in
  let ids r =
    List.sort compare (List.map (fun vb -> vb.Vbuffer.vbuf_id) r.Dnnk.chosen)
  in
  List.iter
    (fun model ->
      let _, m = Helpers.metric_of (Models.Zoo.build model) in
      let vbufs = singleton_vbufs m in
      List.iter
        (fun capacity_bytes ->
          let label = Printf.sprintf "%s at %d KiB" model (capacity_bytes / 1024) in
          let cold = Dnnk.allocate m ~capacity_bytes vbufs in
          let warm = Dnnk.allocate ~workspace:ws m ~capacity_bytes vbufs in
          Alcotest.(check (list int)) (label ^ ": chosen ids") (ids cold) (ids warm);
          Alcotest.(check int64) (label ^ ": latency bits")
            (Int64.bits_of_float cold.Dnnk.predicted_latency)
            (Int64.bits_of_float warm.Dnnk.predicted_latency))
        [ 1024 * 1024; 4 * 1024 * 1024 ])
    [ "alexnet"; "vgg16"; "resnet50"; "googlenet" ]

let both_variants f =
  List.iter f [ Dnnk.Table_approx; Dnnk.Exact_iterative ]

let test_variants_match_exact_enumeration () =
  (* On problems small enough to enumerate, both DNNK variants should be
     close to optimal; Exact_iterative within 2%, Table_approx within 10%. *)
  let graphs = [ Helpers.inception_snippet (); Helpers.diamond (); Helpers.chain () ] in
  List.iter
    (fun g ->
      let _, m = Helpers.metric_of g in
      let vbufs = singleton_vbufs m in
      let capacity_bytes = 2 * 1024 * 1024 in
      let best =
        Policies.run m ~dtype ~capacity_bytes vbufs Policies.Exact_small
      in
      both_variants (fun compensation ->
          let r = Dnnk.allocate ~compensation m ~capacity_bytes vbufs in
          let tolerance =
            match compensation with
            | Dnnk.Exact_iterative -> 1.02
            | Dnnk.Table_approx -> 1.10
          in
          Alcotest.(check bool)
            (Printf.sprintf "near-optimal (%f vs %f)" r.Dnnk.predicted_latency
               best.Policies.latency)
            true
            (r.Dnnk.predicted_latency <= (best.Policies.latency *. tolerance) +. 1e-12)))
    graphs

let prop_never_worse_than_umm =
  Helpers.qtest ~count:30 "DNNK never exceeds UMM latency"
    (QCheck2.Gen.pair Helpers.random_graph_gen (QCheck2.Gen.int_range 0 64))
    (fun (g, cap_blocks) ->
      let _, m = Helpers.metric_of g in
      let vbufs = singleton_vbufs m in
      let r =
        Dnnk.allocate m ~capacity_bytes:(cap_blocks * Dnnk.block_bytes) vbufs
      in
      r.Dnnk.predicted_latency
      <= Accel.Latency.umm_total m.Metric.profiles +. 1e-9)

let prop_capacity_monotone =
  Helpers.qtest ~count:25 "more capacity never hurts"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let vbufs = singleton_vbufs m in
      let lat cap = (Dnnk.allocate m ~capacity_bytes:cap vbufs).Dnnk.predicted_latency in
      let small = lat (256 * 1024) in
      let big = lat (8 * 1024 * 1024) in
      big <= small +. 1e-9)

let prop_matches_exact_on_random =
  Helpers.qtest ~count:15 "exact-iterative within 5% of enumeration"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let vbufs = singleton_vbufs m in
      if List.length vbufs > 18 then true
      else begin
        let capacity_bytes = 1024 * 1024 in
        let best = Policies.run m ~dtype ~capacity_bytes vbufs Policies.Exact_small in
        let r =
          Dnnk.allocate ~compensation:Dnnk.Exact_iterative m ~capacity_bytes vbufs
        in
        r.Dnnk.predicted_latency <= (best.Policies.latency *. 1.05) +. 1e-12
      end)

(* The planner's buffers for a metric: every eligible item, lifespans
   without prefetch, colored with sharing. *)
let colored_vbufs dtype g m =
  let items = Array.of_list (Metric.eligible_items m ~memory_bound_only:false) in
  let intervals =
    Array.map (Lcmm.Liveness.item_interval g ~prefetch_source:(fun _ -> None)) items
  in
  let interference = Lcmm.Interference.build ~items ~intervals () in
  Lcmm.Coloring.color interference
    ~sizes:(Array.map (Metric.item_size_bytes dtype m) items)

(* Compile once, solve many: a compiled buffer set solved at 8
   capacities, in a random order and through one workspace, answers
   each as a fresh [allocate] does (chosen and spilled ids, latency
   bits), with both compensations.  The capacities straddle the all-fit
   boundary: a share of the total blocks, one block short of it, the
   total and past it. *)
let test_compile_once_solve_many () =
  let ids vbufs = List.map (fun vb -> vb.Vbuffer.vbuf_id) vbufs in
  let check ~what st dtype g =
    let _, m = Helpers.metric_of ~dtype g in
    let vbufs = colored_vbufs dtype g m in
    let total =
      List.fold_left (fun acc vb -> acc + Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes)
        0 vbufs
    in
    let capacities =
      List.map
        (fun blocks -> blocks * Dnnk.block_bytes)
        [ 0; total / 16; total / 4; total / 2; total - 1; total; total + 1;
          2 * total ]
      |> List.map (fun c -> (Random.State.bits st, c))
      |> List.sort compare |> List.map snd
    in
    let compiled = Dnnk.compile m vbufs in
    let ws = Dnnk.workspace () in
    both_variants (fun compensation ->
        List.iter
          (fun capacity_bytes ->
            let label =
              Printf.sprintf "%s at %d blocks of %d" what
                (capacity_bytes / Dnnk.block_bytes) total
            in
            let fresh = Dnnk.allocate ~compensation m ~capacity_bytes vbufs in
            let solved =
              Dnnk.solve ~compensation ~workspace:ws compiled ~capacity_bytes
            in
            Alcotest.(check (list int)) (label ^ ": chosen")
              (ids fresh.Dnnk.chosen) (ids solved.Dnnk.chosen);
            Alcotest.(check (list int)) (label ^ ": spilled")
              (ids fresh.Dnnk.spilled) (ids solved.Dnnk.spilled);
            Alcotest.(check int64) (label ^ ": latency bits")
              (Int64.bits_of_float fresh.Dnnk.predicted_latency)
              (Int64.bits_of_float solved.Dnnk.predicted_latency))
          capacities)
  in
  let st = Random.State.make [| 0x5017 |] in
  List.iter
    (fun (family, name, nodes) ->
      let g =
        Check.Gen.sized_graph ~family (Random.State.make [| 0x5017; nodes |]) ~nodes
      in
      check ~what:(Printf.sprintf "%s %d" name nodes) st dtype g)
    Check.Gen.
      [ (Mixed, "mixed", 100); (Mixed, "mixed", 400); (Skip, "skip", 100);
        (Skip, "skip", 250); (Chain, "chain", 60); (Chain, "chain", 300) ];
  List.iter
    (fun model ->
      let g = Models.Zoo.build model in
      List.iter
        (fun dtype ->
          check
            ~what:(Printf.sprintf "%s %s" model (Tensor.Dtype.to_string dtype))
            st dtype g)
        Tensor.Dtype.[ I8; I16 ])
    [ "alexnet"; "squeezenet"; "googlenet"; "resnet50" ]

let suite =
  [ Alcotest.test_case "respects capacity" `Quick test_respects_capacity;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity_chooses_nothing;
    Alcotest.test_case "ample capacity" `Quick test_ample_capacity_takes_all_useful;
    Alcotest.test_case "negative capacity" `Quick test_negative_capacity_rejected;
    Alcotest.test_case "blocks of bytes" `Quick test_blocks_of_bytes;
    Alcotest.test_case "pivot compensation" `Quick test_pivot_compensation_counts_once;
    Alcotest.test_case "shared-item fallback pinned" `Quick test_shared_item_fallback_pinned;
    Alcotest.test_case "variants vs enumeration" `Quick test_variants_match_exact_enumeration;
    Alcotest.test_case "workspace reuse across metrics" `Quick
      test_workspace_reuse_across_metrics;
    Alcotest.test_case "compile once, solve many" `Quick
      test_compile_once_solve_many;
    prop_never_worse_than_umm;
    prop_capacity_monotone;
    prop_matches_exact_on_random ]
