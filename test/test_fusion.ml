(* Fused-layer segmentation and weight streaming: boundary behaviour on
   hand-built chains, legality over the generated graph families, and
   parallel determinism of the whole post-pass. *)

module B = Dnn_graph.Builder
module G = Dnn_graph.Graph
module Values = Dnn_graph.Values
module Metric = Lcmm.Metric
module F = Lcmm.Framework
module Seg = Lcmm_fusion.Segmentation
module Fusion = Lcmm_fusion.Fusion

let dtype = Tensor.Dtype.I16

let search ?(max_segment = 8) ?(on_chip = Metric.Item_set.empty) ~headroom g =
  let cfg, metric = Helpers.metric_of ~dtype g in
  Seg.search ~max_segment ~headroom_bytes:headroom
    ~tile_th:cfg.Accel.Config.tile.Accel.Tiling.th ~dtype metric ~on_chip

(* A chain of pointwise convolutions: no halo, so fusing is free and a
   bigger segment always beats any split of it. *)
let pointwise_chain n =
  let b = B.create () in
  let x = B.input b ~channels:16 ~height:32 ~width:32 () in
  let v = ref x in
  for i = 1 to n do
    v := B.conv b ~name:(Printf.sprintf "c%d" i) ~kernel:(1, 1)
           ~out_channels:16 !v
  done;
  B.finish b

(* --- boundary cases --- *)

let test_whole_graph_segment () =
  (* Huge headroom, pointwise chain: one segment spans every conv (the
     input node is a barrier; the final value is the graph output). *)
  let g = pointwise_chain 5 in
  let r = search ~headroom:max_int g in
  match r.Seg.segments with
  | [ s ] ->
    Alcotest.(check int) "starts after the input" 1 s.Seg.first;
    Alcotest.(check int) "ends at the last conv" 5 s.Seg.last;
    Alcotest.(check (list int)) "keeps every intermediate on chip"
      [ 1; 2; 3; 4 ] s.Seg.internal
  | segs ->
    Alcotest.failf "expected one whole-chain segment, got %d"
      (List.length segs)

let test_no_single_node_segments () =
  List.iter
    (fun g ->
      let r = search ~headroom:max_int g in
      List.iter
        (fun (s : Seg.segment) ->
          Alcotest.(check bool) "segment spans at least two nodes" true
            (s.Seg.last > s.Seg.first))
        r.Seg.segments)
    [ Helpers.chain (); Helpers.diamond (); pointwise_chain 4 ]

let test_no_headroom_no_segments () =
  let g = pointwise_chain 5 in
  let r = search ~headroom:0 g in
  Alcotest.(check int) "no headroom, no segments" 0
    (List.length r.Seg.segments);
  let r = search ~max_segment:1 ~headroom:max_int g in
  Alcotest.(check int) "max_segment 1 fuses nothing" 0
    (List.length r.Seg.segments)

let test_shortcut_forces_cut () =
  (* in -> a -> b -> c with a's value also feeding c: with segments
     capped at two nodes, a's value escapes any [a..b] segment, so no
     segment may start at a. *)
  let b = B.create () in
  let x = B.input b ~channels:16 ~height:32 ~width:32 () in
  let a = B.conv b ~name:"a" ~kernel:(1, 1) ~out_channels:16 x in
  let bb = B.conv b ~name:"b" ~kernel:(1, 1) ~out_channels:16 a in
  let _c = B.add b ~name:"c" [ a; bb ] in
  let g = B.finish b in
  let r = search ~max_segment:2 ~headroom:max_int g in
  List.iter
    (fun (s : Seg.segment) ->
      Alcotest.(check bool) "no segment starts at the shortcut source" true
        (s.Seg.first <> 1))
    r.Seg.segments

let segment_legal g headroom (s : Seg.segment) =
  s.Seg.last > s.Seg.first
  && s.Seg.slab_bytes <= headroom
  && s.Seg.benefit_seconds > 0.
  && List.for_all
       (fun v ->
         Values.is_value g v
         && v >= s.Seg.first && v < s.Seg.last
         &&
         match Values.consumers g v with
         | [] -> false
         | cs -> List.for_all (fun c -> c <= s.Seg.last) cs)
       s.Seg.internal

let test_generated_families_legal () =
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          let g =
            Check.Gen.graph ~family (Random.State.make [| seed |]) ~max_nodes:32
          in
          let headroom = 1 lsl 20 in
          let r = search ~headroom g in
          let rec disjoint prev = function
            | [] -> true
            | (s : Seg.segment) :: rest ->
              s.Seg.first > prev && disjoint s.Seg.last rest
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: segments disjoint and legal"
               (Check.Gen.family_name family) seed)
            true
            (disjoint (-1) r.Seg.segments
            && List.for_all (segment_legal g headroom) r.Seg.segments);
          let total =
            List.fold_left
              (fun a (s : Seg.segment) -> a +. s.Seg.benefit_seconds)
              0. r.Seg.segments
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: DP total matches its segments"
               (Check.Gen.family_name family) seed)
            true
            (Float.abs (total -. r.Seg.total_benefit) <= 1e-12))
        [ 0; 3; 11 ])
    [ Check.Gen.Chain; Check.Gen.Skip; Check.Gen.Degenerate ]

(* --- the full post-pass --- *)

let plan_for ?(fusion = true) g =
  let cfg = Helpers.default_config ~dtype () in
  F.plan ~options:{ F.default_options with F.fusion } cfg g

let test_post_inert_when_off () =
  let g = Helpers.chain () in
  let p = plan_for ~fusion:false g in
  let plan, fz = Fusion.post p in
  Alcotest.(check bool) "no fusion record" true (fz = None);
  Alcotest.(check bool) "effective plan is the base plan itself" true
    (plan == p);
  Alcotest.(check bool) "metric untouched" true (plan.F.metric == p.F.metric)

(* Alexnet at a 3-block capacity: the pass runs and decides nothing,
   yet the plan [post] returns still carries the pass's wall clock on
   top of the base plan's own pass times. *)
let test_post_keeps_pass_time () =
  let cfg = Helpers.default_config ~dtype () in
  let base =
    F.plan
      ~options:
        { F.default_options with
          F.fusion = true;
          capacity_override = Some (3 * Lcmm.Dnnk.block_bytes) }
      cfg (Models.Alexnet.build ())
  in
  match Fusion.post base with
  | _, None -> Alcotest.fail "fusion on, but no fusion record"
  | plan, Some fz ->
    Alcotest.(check bool) "no segments" true (fz.Fusion.segments = []);
    Alcotest.(check (list int)) "nothing streams" [] fz.Fusion.streamed;
    Alcotest.(check bool) "the record's plan is returned" true
      (plan == fz.Fusion.plan);
    let t = plan.F.pass_times in
    Alcotest.(check bool) "segmentation time charged" true
      (t.F.segmentation_us > 0.);
    Alcotest.(check bool) "base pass times kept" true
      ({ t with F.segmentation_us = 0. } = base.F.pass_times);
    Alcotest.(check bool) "metric untouched" true
      (plan.F.metric == base.F.metric)

let test_apply_never_slower () =
  List.iter
    (fun g ->
      let p = plan_for g in
      let fz = Fusion.apply p in
      Alcotest.(check bool) "fused latency <= base" true
        (fz.Fusion.predicted_latency <= p.F.predicted_latency +. 1e-12);
      Alcotest.(check bool) "DDR never grows" true
        (Fusion.ddr_bytes_saved fz >= 0))
    [ Helpers.chain (); Helpers.diamond (); Helpers.inception_snippet () ]

(* The streaming FIFO (4 blocks, 128 KiB) is charged only when it fits
   beside the plan's resident tensors: the same spilled weights stream
   under the full budget and do not under a 3-block capacity. *)
let test_streaming_fifo_gate () =
  let g = Models.Alexnet.build () in
  let cfg = Helpers.default_config ~dtype () in
  let plan capacity_override =
    F.plan
      ~options:{ F.default_options with F.fusion = true; capacity_override }
      cfg g
  in
  let candidates (p : F.plan) =
    let m = p.F.metric in
    List.filter
      (fun i ->
        let pr = m.Metric.profiles.(i) in
        m.Metric.slices.(i) = 1
        && pr.Accel.Latency.wt_term > 0.
        && pr.Accel.Latency.wt_load_once < pr.Accel.Latency.wt_term
        && not
             (Metric.Item_set.mem (Metric.Weight_of i)
                p.F.allocation.Lcmm.Dnnk.on_chip))
      (List.init (Array.length m.Metric.profiles) Fun.id)
  in
  let roomy = plan None in
  let fz = Fusion.apply roomy in
  Alcotest.(check bool) "room: weights stream" true (fz.Fusion.streamed <> []);
  Alcotest.(check (list int)) "room: every candidate streams"
    (candidates roomy) fz.Fusion.streamed;
  Alcotest.(check int) "room: FIFO is 4 blocks" 131072 fz.Fusion.fifo_bytes;
  let tight = plan (Some (3 * Lcmm.Dnnk.block_bytes)) in
  Alcotest.(check bool) "tight: candidates exist" true (candidates tight <> []);
  let fz = Fusion.apply tight in
  Alcotest.(check (list int)) "tight: nothing streams" [] fz.Fusion.streamed;
  Alcotest.(check int) "tight: no FIFO" 0 fz.Fusion.fifo_bytes

let suite =
  [ Alcotest.test_case "whole graph fuses under huge SRAM" `Quick
      test_whole_graph_segment;
    Alcotest.test_case "no single-node segments" `Quick
      test_no_single_node_segments;
    Alcotest.test_case "no headroom or length, no segments" `Quick
      test_no_headroom_no_segments;
    Alcotest.test_case "shortcut edge forces a cut" `Quick
      test_shortcut_forces_cut;
    Alcotest.test_case "generated families stay legal" `Quick
      test_generated_families_legal;
    Alcotest.test_case "fusion off is inert" `Quick test_post_inert_when_off;
    Alcotest.test_case "post charges a pass that decides nothing" `Quick
      test_post_keeps_pass_time;
    Alcotest.test_case "fusion never slows a plan" `Quick
      test_apply_never_slower;
    Alcotest.test_case "streaming FIFO only when it fits" `Quick
      test_streaming_fifo_gate ]
