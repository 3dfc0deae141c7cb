(* Partial weight pinning (Weight_slice items). *)

module Metric = Lcmm.Metric
module F = Lcmm.Framework

let dtype = Tensor.Dtype.I16

let sliced_metric k g =
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let profiles = Accel.Latency.profile_graph cfg g in
  Metric.build ~weight_slices:(fun _ -> k) g profiles

let all_slices_of m node =
  let k = m.Metric.slices.(node) in
  List.init k (fun index -> Metric.Weight_slice { node; index; of_k = k })

let test_slices_replace_whole_items () =
  let g = Helpers.inception_snippet () in
  let m = sliced_metric 4 g in
  let items = Metric.eligible_items m ~memory_bound_only:false in
  Alcotest.(check bool) "no whole-weight items" true
    (List.for_all
       (function Metric.Weight_of _ -> false | Metric.Feature_value _ | Metric.Weight_slice _ -> true)
       items);
  (* Node 3 (C3) has weights: exactly 4 slices appear. *)
  let c3_slices =
    List.filter
      (function
        | Metric.Weight_slice { node = 3; _ } -> true
        | Metric.Weight_slice _ | Metric.Weight_of _ | Metric.Feature_value _ -> false)
      items
  in
  Alcotest.(check int) "four slices for C3" 4 (List.length c3_slices)

let test_slice_sizes_cover_tensor () =
  let g = Helpers.inception_snippet () in
  let m1 = sliced_metric 1 g in
  let m4 = sliced_metric 4 g in
  let whole = Metric.item_size_bytes dtype m1 (Metric.Weight_of 3) in
  let slices =
    List.fold_left
      (fun acc it -> acc + Metric.item_size_bytes dtype m4 it)
      0 (all_slices_of m4 3)
  in
  Alcotest.(check bool) "slices cover the tensor" true (slices >= whole);
  Alcotest.(check bool) "no more than rounding overhead" true (slices < whole + 4)

let test_fractional_latency () =
  let g = Helpers.inception_snippet () in
  let m = sliced_metric 4 g in
  let p = m.Metric.profiles.(3) in
  (* Pinning slices one by one moves the weight term down linearly until
     another term dominates; full pinning matches wt term = 0. *)
  let latency_with n_pinned =
    let on = Metric.mark (Metric.item_count m) in
    List.iter
      (fun it -> Metric.add on (Metric.item_index m it))
      (List.filteri (fun i _ -> i < n_pinned) (all_slices_of m 3));
    Metric.node_latency_on m on 3
  in
  let l0 = latency_with 0 and l2 = latency_with 2 and l4 = latency_with 4 in
  Alcotest.(check bool) "monotone" true (l4 <= l2 && l2 <= l0);
  (* With all slices pinned, the weight stream is gone entirely. *)
  let others =
    max p.Accel.Latency.latc
      (max
         (Array.fold_left ( +. ) 0. p.Accel.Latency.if_secs)
         p.Accel.Latency.of_term)
  in
  Alcotest.(check (float 1e-12)) "fully pinned" others l4;
  (* Half the slices stream half the weight bytes. *)
  if p.Accel.Latency.wt_term /. 2. > others then
    Alcotest.(check (float 1e-9)) "half pinned" (p.Accel.Latency.wt_term /. 2.) l2

let test_slicing_helps_under_pressure () =
  (* With a budget smaller than the largest weight tensor, whole-tensor
     granularity cannot pin it at all; slices can pin part of it. *)
  let g = Helpers.inception_snippet () in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let budget = 256 * 1024 in
  let plan k =
    F.plan
      ~options:
        { F.default_options with
          F.capacity_override = Some budget;
          weight_slices = k }
      cfg g
  in
  let whole = plan 1 in
  let sliced = plan 8 in
  Alcotest.(check bool)
    (Printf.sprintf "sliced (%f) <= whole (%f)"
       sliced.F.predicted_latency whole.F.predicted_latency)
    true
    (sliced.F.predicted_latency <= whole.F.predicted_latency +. 1e-12)

let test_framework_slices_respect_budget () =
  let g = Helpers.inception_snippet () in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let p =
    F.plan
      ~options:
        { F.default_options with
          F.capacity_override = Some (128 * 1024);
          weight_slices = 4 }
      cfg g
  in
  Alcotest.(check bool) "budget respected" true
    (p.F.tensor_sram_bytes <= 128 * 1024)

let test_simulator_fractional_weights () =
  let g = Helpers.inception_snippet () in
  let m = sliced_metric 2 g in
  (* Pin half of C3's weights; steady-state simulation must sit between
     all-off and all-on. *)
  let half = Metric.Item_set.of_list [ Metric.Weight_slice { node = 3; index = 0; of_k = 2 } ] in
  let all = Metric.Item_set.of_list (all_slices_of m 3) in
  let total set =
    (Sim.Engine.simulate ~weights_resident:true m ~on_chip:set).Sim.Engine.total
  in
  let t0 = total Metric.Item_set.empty in
  let t1 = total half in
  let t2 = total all in
  Alcotest.(check bool) "between" true (t2 <= t1 +. 1e-15 && t1 <= t0 +. 1e-15)

(* Slicing trades finer placement against block-rounding waste, so it is
   not universally dominant; what must always hold is the framework's
   never-worse-than-baseline guarantee and the capacity discipline. *)
let prop_sliced_sound =
  Helpers.qtest ~count:15 "sliced plans stay sound under a tight budget"
    Helpers.random_graph_gen (fun g ->
      let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
      let budget = 128 * 1024 in
      let p =
        F.plan
          ~options:
            { F.default_options with
              F.capacity_override = Some budget;
              weight_slices = 4 }
          cfg g
      in
      p.F.predicted_latency
      <= Accel.Latency.umm_total p.F.metric.Metric.profiles +. 1e-9
      && p.F.tensor_sram_bytes <= budget)

let suite =
  [ Alcotest.test_case "slices replace whole items" `Quick test_slices_replace_whole_items;
    Alcotest.test_case "slice sizes cover tensor" `Quick test_slice_sizes_cover_tensor;
    Alcotest.test_case "fractional latency" `Quick test_fractional_latency;
    Alcotest.test_case "slicing helps under pressure" `Quick test_slicing_helps_under_pressure;
    Alcotest.test_case "slices respect budget" `Quick test_framework_slices_respect_budget;
    Alcotest.test_case "simulator fractional weights" `Quick test_simulator_fractional_weights;
    prop_sliced_sound ]
