(* DDR traffic and energy accounting. *)

module Metric = Lcmm.Metric
module Traffic = Lcmm.Traffic

let dtype = Tensor.Dtype.I16

let fixture () = Helpers.metric_of (Helpers.inception_snippet ())

let test_umm_traffic_positive () =
  let _, m = fixture () in
  let t = Traffic.umm m in
  Alcotest.(check bool) "if positive" true (t.Traffic.if_bytes > 0);
  Alcotest.(check bool) "wt positive" true (t.Traffic.wt_bytes > 0);
  Alcotest.(check bool) "of positive" true (t.Traffic.of_bytes > 0);
  Alcotest.(check int) "total is the sum"
    (t.Traffic.if_bytes + t.Traffic.wt_bytes + t.Traffic.of_bytes)
    (Traffic.total_bytes t)

let test_pinning_reduces_traffic () =
  let _, m = fixture () in
  let umm = Traffic.umm m in
  (* Pin C2's output value: C3 stops reading it and C2 stops writing it. *)
  let on_chip = Metric.Item_set.singleton (Metric.Feature_value 2) in
  let t = Traffic.of_allocation m ~on_chip in
  Alcotest.(check bool) "if drops" true (t.Traffic.if_bytes < umm.Traffic.if_bytes);
  Alcotest.(check bool) "of drops" true (t.Traffic.of_bytes < umm.Traffic.of_bytes);
  Alcotest.(check int) "wt unchanged" umm.Traffic.wt_bytes t.Traffic.wt_bytes

let test_weight_pinning_loads_once () =
  let _, m = fixture () in
  let p = m.Metric.profiles.(3) in
  let umm = Traffic.umm m in
  let t =
    Traffic.of_allocation m ~on_chip:(Metric.Item_set.singleton (Metric.Weight_of 3))
  in
  (* Streamed bytes (with reloads) are replaced by one whole-tensor load. *)
  Alcotest.(check int) "delta = streamed - once"
    (umm.Traffic.wt_bytes - p.Accel.Latency.wt_stream_bytes
    + p.Accel.Latency.wt_once_bytes)
    t.Traffic.wt_bytes;
  Alcotest.(check bool) "never grows" true (t.Traffic.wt_bytes <= umm.Traffic.wt_bytes)

let test_sliced_weight_traffic () =
  let g = Helpers.inception_snippet () in
  let cfg = Helpers.default_config () in
  let m =
    Metric.build ~weight_slices:(fun _ -> 2) g (Accel.Latency.profile_graph cfg g)
  in
  let full = Traffic.umm m in
  let half =
    Traffic.of_allocation m
      ~on_chip:
        (Metric.Item_set.singleton
           (Metric.Weight_slice { node = 3; index = 0; of_k = 2 }))
  in
  (* C3's 8x8 map fits one spatial tile, so streaming already moves the
     tensor exactly once: pinning half trades stream bytes for load bytes
     one-for-one.  The accounting must reflect that (no change), and the
     pinned share must never increase traffic. *)
  Alcotest.(check bool) "never increases" true
    (half.Traffic.wt_bytes <= full.Traffic.wt_bytes);
  let p3 = m.Metric.profiles.(3) in
  if p3.Accel.Latency.wt_stream_bytes = p3.Accel.Latency.wt_once_bytes then
    Alcotest.(check int) "reload-free tensors trade one-for-one"
      full.Traffic.wt_bytes half.Traffic.wt_bytes

let test_energy_ordering () =
  let _, m = fixture () in
  let all =
    Metric.Item_set.of_list (Metric.eligible_items m ~memory_bound_only:false)
  in
  let e_umm = Traffic.energy_of_allocation m ~dtype ~on_chip:Metric.Item_set.empty in
  let e_lcmm = Traffic.energy_of_allocation m ~dtype ~on_chip:all in
  Alcotest.(check bool) "pinning saves energy" true
    (Traffic.total_joules e_lcmm < Traffic.total_joules e_umm);
  Alcotest.(check (float 1e-15)) "same compute energy" e_umm.Traffic.compute_joules
    e_lcmm.Traffic.compute_joules;
  Alcotest.(check bool) "ddr dominates sram trade" true
    (e_umm.Traffic.ddr_joules -. e_lcmm.Traffic.ddr_joules
    > e_lcmm.Traffic.sram_joules -. e_umm.Traffic.sram_joules)

let test_energy_model_scaling () =
  let _, m = fixture () in
  let all =
    Metric.Item_set.of_list (Metric.eligible_items m ~memory_bound_only:false)
  in
  let e dtype = Traffic.energy_of_allocation m ~dtype ~on_chip:all in
  let e8 = e Tensor.Dtype.I8 in
  Alcotest.(check bool) "f32 macs cost more" true
    ((e Tensor.Dtype.F32).Traffic.compute_joules > e8.Traffic.compute_joules);
  (* Per byte moved: the DDR bytes left and the SRAM bytes pinned. *)
  let ddr = Traffic.total_bytes (Traffic.of_allocation m ~on_chip:all) in
  let sram = Traffic.total_bytes (Traffic.umm m) - ddr in
  Alcotest.(check bool) "ddr >> sram" true
    (e8.Traffic.ddr_joules /. float_of_int ddr
    > 50. *. e8.Traffic.sram_joules /. float_of_int sram)

let prop_traffic_monotone =
  Helpers.qtest ~count:25 "traffic monotone in allocation"
    Helpers.random_graph_gen (fun g ->
      let _, m = Helpers.metric_of g in
      let all =
        Metric.Item_set.of_list (Metric.eligible_items m ~memory_bound_only:false)
      in
      Traffic.total_bytes (Traffic.of_allocation m ~on_chip:all)
      <= Traffic.total_bytes (Traffic.umm m))

let suite =
  [ Alcotest.test_case "umm traffic" `Quick test_umm_traffic_positive;
    Alcotest.test_case "pinning reduces traffic" `Quick test_pinning_reduces_traffic;
    Alcotest.test_case "weight pinning loads once" `Quick test_weight_pinning_loads_once;
    Alcotest.test_case "sliced weight traffic" `Quick test_sliced_weight_traffic;
    Alcotest.test_case "energy ordering" `Quick test_energy_ordering;
    Alcotest.test_case "energy model scaling" `Quick test_energy_model_scaling;
    prop_traffic_monotone ]
