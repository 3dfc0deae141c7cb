(* The benchmark harness behind `lcmm bench [EXP...] [--json PATH]`:
   regenerates every table and figure of the paper's evaluation, printing
   our measured numbers next to the published ones, plus the extension
   experiments (planner scale, the multi-tenant runtime, fault injection,
   fusion) and the serving tier's load and chaos benches.

     lcmm bench                              -- run every experiment
     lcmm bench table1 fig8                  -- run the named ones
     lcmm bench table1 --json BENCH_table1.json

   Every experiment prints its table; the documented ones (table1 perf
   runtime faults serve chaos fusion) also return a JSON document, which
   `--json` writes for exactly one named experiment.  Each experiment
   runs at fixed settings, so its output is comparable across commits.

   Absolute numbers differ from the paper (the substrate here is an
   analytical model + event simulator, not a VU9P board); EXPERIMENTS.md
   discusses shape-level agreement. *)

open Common
module Json = Dnn_serial.Json
module F = Lcmm.Framework
module Metric = Lcmm.Metric
module Dnnk = Lcmm.Dnnk

let line = String.make 78 '-'

(* The LCMM design point a DSE chose, planned from the table its sweep
   compiled, as a compile plans it. *)
let plan_dse ?options (dse : Accel.Dse.result) g =
  F.finish
    (F.allocate (F.prepare ?options dse.Accel.Dse.config dse.Accel.Dse.table g))

(* The chosen design's Eq. 1 profiles, from the same table. *)
let profiles_dse (dse : Accel.Dse.result) =
  Accel.Latency.profiles dse.Accel.Dse.config dse.Accel.Dse.table

let header title =
  Printf.printf "\n%s\n== %s\n%s\n%!" line title line

(* ------------------------------------------------------------------ *)
(* Paper reference numbers (Table 1 of the paper).                     *)

type paper_row = {
  p_umm_ms : float;
  p_umm_tops : float;
  p_lcmm_ms : float;
  p_lcmm_tops : float;
  p_speedup : float;
}

let paper_table1 model dtype =
  match model, dtype with
  | "resnet152", Tensor.Dtype.I8 ->
    Some { p_umm_ms = 18.806; p_umm_tops = 1.227; p_lcmm_ms = 13.258; p_lcmm_tops = 1.747; p_speedup = 1.42 }
  | "resnet152", Tensor.Dtype.I16 ->
    Some { p_umm_ms = 22.253; p_umm_tops = 1.126; p_lcmm_ms = 15.243; p_lcmm_tops = 1.644; p_speedup = 1.46 }
  | "resnet152", Tensor.Dtype.F32 ->
    Some { p_umm_ms = 125.720; p_umm_tops = 0.184; p_lcmm_ms = 86.754; p_lcmm_tops = 0.266; p_speedup = 1.45 }
  | "googlenet", Tensor.Dtype.I8 ->
    Some { p_umm_ms = 5.589; p_umm_tops = 0.936; p_lcmm_ms = 4.650; p_lcmm_tops = 1.148; p_speedup = 1.23 }
  | "googlenet", Tensor.Dtype.I16 ->
    Some { p_umm_ms = 6.366; p_umm_tops = 0.668; p_lcmm_ms = 4.929; p_lcmm_tops = 0.863; p_speedup = 1.29 }
  | "googlenet", Tensor.Dtype.F32 ->
    Some { p_umm_ms = 24.454; p_umm_tops = 0.213; p_lcmm_ms = 19.439; p_lcmm_tops = 0.269; p_speedup = 1.25 }
  | "inception_v4", Tensor.Dtype.I8 ->
    Some { p_umm_ms = 7.110; p_umm_tops = 1.293; p_lcmm_ms = 6.030; p_lcmm_tops = 1.528; p_speedup = 1.17 }
  | "inception_v4", Tensor.Dtype.I16 ->
    Some { p_umm_ms = 9.595; p_umm_tops = 0.968; p_lcmm_ms = 6.972; p_lcmm_tops = 1.319; p_speedup = 1.36 }
  | "inception_v4", Tensor.Dtype.F32 ->
    Some { p_umm_ms = 37.515; p_umm_tops = 0.213; p_lcmm_ms = 28.255; p_lcmm_tops = 0.325; p_speedup = 1.33 }
  | _, (Tensor.Dtype.I8 | Tensor.Dtype.I16 | Tensor.Dtype.F32) -> None

(* Paper Table 2: (UMM bram/uram %, LCMM bram/uram %, POL %). *)
let paper_table2 model dtype =
  match model, dtype with
  | "resnet152", Tensor.Dtype.I8 -> Some ((8, 15), (34, 87), 94)
  | "resnet152", Tensor.Dtype.I16 -> Some ((8, 21), (30, 82), 94)
  | "resnet152", Tensor.Dtype.F32 -> Some ((12, 25), (27, 82), 84)
  | "googlenet", Tensor.Dtype.I8 -> Some ((8, 10), (26, 84), 83)
  | "googlenet", Tensor.Dtype.I16 -> Some ((8, 17), (22, 86), 82)
  | "googlenet", Tensor.Dtype.F32 -> Some ((10, 25), (28, 80), 61)
  | "inception_v4", Tensor.Dtype.I8 -> Some ((8, 13), (26, 88), 78)
  | "inception_v4", Tensor.Dtype.I16 -> Some ((8, 18), (21, 88), 79)
  | "inception_v4", Tensor.Dtype.F32 -> Some ((10, 24), (22, 80), 66)
  | _, (Tensor.Dtype.I8 | Tensor.Dtype.I16 | Tensor.Dtype.F32) -> None

let suite = [ "resnet152"; "googlenet"; "inception_v4" ]

(* Comparisons are expensive; compute each (model, dtype) once. *)
let comparison_cache : (string * Tensor.Dtype.t, F.comparison) Hashtbl.t =
  Hashtbl.create 16

let comparison model dtype =
  match Hashtbl.find_opt comparison_cache (model, dtype) with
  | Some c -> c
  | None ->
    let g = Models.Zoo.build model in
    let c = F.compare_designs ~model dtype g in
    Hashtbl.replace comparison_cache (model, dtype) c;
    c

(* Fused-plan latency for the table1 fusion column.  The post-pass runs
   on the already-computed base plan, so the column costs one
   segmentation sweep per row, not a replan. *)
let fusion_ms (c : F.comparison) =
  let fz = Lcmm_fusion.Fusion.apply c.F.lcmm_plan in
  Some (fz.Lcmm_fusion.Fusion.plan.F.predicted_latency *. 1e3)

(* ------------------------------------------------------------------ *)

let fig2a () =
  header "Fig. 2(a): roofline of the VU9P, Inception-v4, 8-bit";
  let g = Models.Zoo.build "inception_v4" in
  let cfg = Accel.Config.make ~style:Accel.Config.Umm Tensor.Dtype.I8 in
  let points = Accel.Roofline.points cfg g in
  Printf.printf "ridge point: %.1f ops/byte; peak %.2f Tops; interface %.1f GB/s\n"
    (Accel.Roofline.ridge_point cfg)
    (Accel.Config.peak_ops cfg /. 1e12)
    (Accel.Config.interface_bandwidth cfg /. 1e9);
  (* The series the paper scatters: (intensity, attainable) per layer. *)
  Printf.printf "%-26s %10s %10s %6s\n" "layer" "ops/byte" "att.Tops" "bound";
  List.iteri
    (fun i p ->
      if i mod 12 = 0 then
        Printf.printf "%-26s %10.1f %10.3f %6s\n" p.Accel.Roofline.layer_name
          p.Accel.Roofline.intensity p.Accel.Roofline.attainable_tops
          (if p.Accel.Roofline.tiled_memory_bound then "MEM" else "cmp"))
    points;
  Printf.printf "  (every 12th of %d layers shown)\n" (List.length points);
  let mb, total, frac = Accel.Roofline.summary points in
  Printf.printf "memory-bound layers: %d / %d (%.0f%%)   [paper: 82 / 141 (58%%)]\n"
    mb total (100. *. frac)

let table1 () =
  header "Table 1: UMM vs LCMM (latency, throughput, utilization, speedup)";
  Printf.printf "%-13s %-4s | %9s %6s | %9s %6s | %5s %5s %5s | %6s %7s\n"
    "model" "prec" "UMM ms" "Tops" "LCMM ms" "Tops" "DSP%" "CLB%" "SRAM%"
    "ours x" "paper x";
  let speedups = ref [] in
  List.iter
    (fun model ->
      List.iter
        (fun dtype ->
          let c = comparison model dtype in
          let paper = paper_table1 model dtype in
          Printf.printf
            "%-13s %-4s | %9.3f %6.3f | %9.3f %6.3f | %5.0f %5.0f %5.0f | %6.2f %7s\n%!"
            model
            (Tensor.Dtype.to_string dtype)
            (c.F.umm.F.latency_seconds *. 1e3)
            c.F.umm.F.tops
            (c.F.lcmm.F.latency_seconds *. 1e3)
            c.F.lcmm.F.tops
            (100. *. c.F.lcmm.F.dsp_util)
            (100. *. c.F.lcmm.F.clb_util)
            (100. *. c.F.lcmm.F.sram_util)
            c.F.speedup
            (match paper with
            | Some p -> Printf.sprintf "%.2f" p.p_speedup
            | None -> "-");
          speedups := c.F.speedup :: !speedups)
        Tensor.Dtype.all)
    suite;
  let avg =
    List.fold_left ( +. ) 0. !speedups /. float_of_int (List.length !speedups)
  in
  Printf.printf "average speedup: x%.2f   [paper: x1.36]\n" avg;
  let rows =
    List.concat_map
      (fun model -> List.map (fun dtype -> comparison model dtype) Tensor.Dtype.all)
      suite
  in
  Lcmm.Report.write_text_file ~path:"table1.csv"
    (Lcmm.Report.csv_of_comparisons ~fusion_ms rows);
  Printf.printf "(series written to table1.csv)\n";
  let row_json (c : F.comparison) =
    Json.Obj
      [ ("model", Json.String c.F.model);
        ("dtype", Json.String (Tensor.Dtype.to_string c.F.dtype));
        ("umm_ms", Json.Float (c.F.umm.F.latency_seconds *. 1e3));
        ("lcmm_ms", Json.Float (c.F.lcmm.F.latency_seconds *. 1e3));
        ( "fusion_ms",
          match fusion_ms c with
          | Some ms -> Json.Float ms
          | None -> Json.Null );
        ("speedup", Json.Float c.F.speedup) ]
  in
  Json.Obj
    [ ("experiment", Json.String "table1");
      ("average_speedup", Json.Float avg);
      ("rows", Json.List (List.map row_json rows)) ]

let table2 () =
  header "Table 2: on-chip memory utilization (BRAM/URAM %, POL)";
  Printf.printf "%-13s %-4s | %15s | %15s | %16s %9s\n" "model" "prec"
    "UMM bram/uram" "LCMM bram/uram" "POL ours" "paper";
  List.iter
    (fun model ->
      List.iter
        (fun dtype ->
          let c = comparison model dtype in
          let helped, bound = F.helped_layers c.F.lcmm_plan in
          let pol = 100. *. c.F.lcmm_plan.F.pol in
          let paper = paper_table2 model dtype in
          Printf.printf
            "%-13s %-4s | %5.0f%% / %5.0f%% | %5.0f%% / %5.0f%% | %5.0f%% (%3d/%3d) %9s\n%!"
            model
            (Tensor.Dtype.to_string dtype)
            (100. *. c.F.umm.F.bram_util)
            (100. *. c.F.umm.F.uram_util)
            (100. *. c.F.lcmm.F.bram_util)
            (100. *. c.F.lcmm.F.uram_util)
            pol helped bound
            (match paper with
            | Some (_, _, pol) -> Printf.sprintf "%d%%" pol
            | None -> "-"))
        Tensor.Dtype.all)
    suite

let table3 () =
  header "Table 3: comparison with state-of-the-art design styles (16-bit)";
  (* Published numbers for [3] Cloud-DNN (ResNet-50) and [17] TGPA
     (ResNet-152) on the same VU9P. *)
  Printf.printf "%-34s %10s %10s %10s\n" "design" "Tops" "ms/image" "SRAM MB";
  let report name tops ms sram =
    Printf.printf "%-34s %10.3f %10.2f %10.1f\n" name tops ms sram
  in
  report "Cloud-DNN [3] RN-50 (paper)" 1.235 8.12 (7.20 +. 27.68);
  report "TGPA [17] RN-152 (paper)" 1.463 17.34 (6.45 +. 19.56);
  report "LCMM RN-152 (paper)" 1.644 15.24 (2.84 +. 27.68);
  Printf.printf "%s\n" (String.make 66 '.');
  List.iter
    (fun (model, style_name, policy) ->
      let g = Models.Zoo.build model in
      let dtype = Tensor.Dtype.I16 in
      let c = comparison model dtype in
      (* Evaluate the rival style's allocation policy on our substrate. *)
      let m = c.F.lcmm_plan.F.metric in
      let o =
        Lcmm.Policies.run m ~dtype
          ~capacity_bytes:(Accel.Config.sram_budget_bytes c.F.lcmm_plan.F.config)
          [] policy
      in
      let tops =
        2. *. float_of_int (Dnn_graph.Graph.total_macs g)
        /. o.Lcmm.Policies.latency /. 1e12
      in
      report
        (Printf.sprintf "%s %s (ours%s)" style_name model
           (if o.Lcmm.Policies.feasible then "" else ", infeasible"))
        tops
        (o.Lcmm.Policies.latency *. 1e3)
        (float_of_int o.Lcmm.Policies.used_bytes /. 1e6))
    [ ("resnet50", "all-features", Lcmm.Policies.All_features);
      ("resnet152", "stream-tile", Lcmm.Policies.Stream_tile) ];
  List.iter
    (fun model ->
      let c = comparison model Tensor.Dtype.I16 in
      report
        (Printf.sprintf "LCMM %s (ours)" model)
        c.F.lcmm.F.tops
        (c.F.lcmm.F.latency_seconds *. 1e3)
        (c.F.lcmm.F.sram_util
        *. float_of_int (Fpga.Device.sram_bytes Fpga.Device.vu9p)
        /. 1e6))
    [ "resnet50"; "resnet152" ]

let fig8 () =
  header "Fig. 8: per-inception-block throughput, GoogLeNet 16-bit";
  let g = Models.Zoo.build "googlenet" in
  let dtype = Tensor.Dtype.I16 in
  let dse = Accel.Dse.run ~style:Accel.Config.Lcmm dtype g in
  let plan_with options = plan_dse ~options dse g in
  let base = F.default_options in
  let variants =
    [ ("feat-reuse", { base with F.weight_prefetch = false });
      ("wt-prefetch", { base with F.feature_reuse = false });
      ("full-LCMM", base) ]
  in
  let simulate plan =
    Sim.Engine.simulate ?prefetch:plan.F.prefetch plan.F.metric
      ~on_chip:plan.F.allocation.Dnnk.on_chip
  in
  let reference_plan = plan_with base in
  let umm_run = Sim.Engine.simulate_umm reference_plan.F.metric in
  let umm_rows = Sim.Report.per_block g umm_run in
  let variant_runs =
    List.map (fun (name, options) -> (name, simulate (plan_with options))) variants
  in
  let variant_rows =
    List.map (fun (name, run) -> (name, Sim.Report.per_block g run)) variant_runs
  in
  Printf.printf "%-16s %10s" "block" "UMM";
  List.iter (fun (name, _) -> Printf.printf " %12s" name) variant_rows;
  Printf.printf "   (Tops)\n";
  List.iteri
    (fun i umm_row ->
      Printf.printf "%-16s %10.3f" umm_row.Sim.Report.block umm_row.Sim.Report.tops;
      List.iter
        (fun (_, rows) ->
          let row = List.nth rows i in
          Printf.printf " %12.3f" row.Sim.Report.tops)
        variant_rows;
      print_newline ())
    umm_rows;
  Printf.printf "%-16s %10.3f" "TOTAL ms" (umm_run.Sim.Engine.total *. 1e3);
  List.iter
    (fun (_, run) -> Printf.printf " %12.3f" (run.Sim.Engine.total *. 1e3))
    variant_runs;
  print_newline ();
  (* Extensions: simulation-guided refinement of the weight allocation,
     and the steady state where weights persist across inferences. *)
  let refined =
    Sim.Refine.run ?prefetch:reference_plan.F.prefetch reference_plan.F.metric
      ~on_chip:reference_plan.F.allocation.Dnnk.on_chip
  in
  Printf.printf
    "full LCMM + sim-guided refinement: %.3f ms (unpinned %d weights)\n"
    (refined.Sim.Refine.refined_total *. 1e3)
    (List.length refined.Sim.Refine.unpinned);
  let steady =
    Sim.Engine.simulate ~weights_resident:true reference_plan.F.metric
      ~on_chip:reference_plan.F.allocation.Dnnk.on_chip
  in
  Printf.printf "full LCMM, steady state (weights resident): %.3f ms\n"
    (steady.Sim.Engine.total *. 1e3);
  let batch =
    Sim.Engine.simulate_batch ?prefetch:reference_plan.F.prefetch ~images:64
      reference_plan.F.metric
      ~on_chip:reference_plan.F.allocation.Dnnk.on_chip
  in
  Printf.printf "batch of 64 images: %.1f img/s (first %.3f ms, steady %.3f ms)\n"
    batch.Sim.Engine.images_per_second
    (batch.Sim.Engine.first_image *. 1e3)
    (batch.Sim.Engine.steady_image *. 1e3)

let fig2b () =
  header "Fig. 2(b): design space of per-block allocation, Inception-v4 8-bit";
  let g = Models.Zoo.build "inception_v4" in
  let dtype = Tensor.Dtype.I8 in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let metric = Metric.build g (Accel.Latency.profile_graph cfg g) in
  let blocks =
    List.map
      (fun b -> (b, Lcmm.Design_space.block_items metric ~block:b))
      Models.Inception_v4.block_names
  in
  let t0 = Unix.gettimeofday () in
  let points =
    Lcmm.Design_space.sweep metric ~dtype
      ~total_macs:(Dnn_graph.Graph.total_macs g) ~blocks
  in
  Printf.printf "swept %d design points in %.1f s\n" (List.length points)
    (Unix.gettimeofday () -. t0);
  Lcmm.Report.write_text_file ~path:"fig2b.csv"
    (Lcmm.Report.csv_of_design_points points);
  Printf.printf "(all %d points written to fig2b.csv)\n" (List.length points);
  let frontier = Lcmm.Design_space.pareto points in
  Printf.printf "pareto frontier: %d points\n" (List.length frontier);
  Printf.printf "%10s %10s %8s\n" "SRAM MB" "lat ms" "Tops";
  List.iteri
    (fun i p ->
      if i mod 4 = 0 then
        Printf.printf "%10.2f %10.3f %8.3f\n"
          (float_of_int p.Lcmm.Design_space.sram_bytes /. 1e6)
          (p.Lcmm.Design_space.latency *. 1e3)
          p.Lcmm.Design_space.tops)
    frontier;
  (* The paper's observation: near-capacity points far from the best. *)
  let device = float_of_int (Fpga.Device.sram_bytes Fpga.Device.vu9p) in
  let near_limit =
    List.filter
      (fun p ->
        let b = float_of_int p.Lcmm.Design_space.sram_bytes in
        b > 0.6 *. device && b <= device)
      points
  in
  let best_overall =
    List.fold_left (fun acc p -> max acc p.Lcmm.Design_space.tops) 0. points
  in
  (match near_limit with
  | [] -> Printf.printf "no points near the device limit\n"
  | _ :: _ ->
    let lo =
      List.fold_left (fun acc p -> min acc p.Lcmm.Design_space.tops) infinity near_limit
    in
    let hi =
      List.fold_left (fun acc p -> max acc p.Lcmm.Design_space.tops) 0. near_limit
    in
    Printf.printf
      "near the device limit (60-100%% of %.0f MB): %d points, %.3f..%.3f Tops (best anywhere %.3f)\n"
      (device /. 1e6) (List.length near_limit) lo hi best_overall);
  (* More memory does not imply more performance: count inverted pairs. *)
  let arr = Array.of_list points in
  let n = Array.length arr in
  let inversions = ref 0 and pairs = ref 0 in
  let stride = 37 in
  for i = 0 to n - stride - 1 do
    let a = arr.(i) and b = arr.(i + stride) in
    if a.Lcmm.Design_space.sram_bytes < b.Lcmm.Design_space.sram_bytes then begin
      incr pairs;
      if a.Lcmm.Design_space.tops > b.Lcmm.Design_space.tops then incr inversions
    end
  done;
  if !pairs > 0 then
    Printf.printf "memory/performance inversions in sampled pairs: %d / %d (%.0f%%)\n"
      !inversions !pairs
      (100. *. float_of_int !inversions /. float_of_int !pairs)

let ablation () =
  header "Ablation: allocator variants, sharing, splitting, coloring";
  let dtype = Tensor.Dtype.I16 in
  Printf.printf "%-13s | %9s %9s %9s %9s (predicted ms)\n" "model" "umm"
    "greedy" "dnnk" "dnnk-ex";
  List.iter
    (fun model ->
      let g = Models.Zoo.build model in
      let dse = Accel.Dse.run ~style:Accel.Config.Lcmm dtype g in
      let cfg = dse.Accel.Dse.config in
      let metric = Metric.build g (profiles_dse dse) in
      let items = Metric.eligible_items metric ~memory_bound_only:true in
      let vbufs =
        List.mapi
          (fun i item ->
            Lcmm.Vbuffer.singleton ~vbuf_id:i item
              ~size_bytes:(Metric.item_size_bytes dtype metric item))
          items
      in
      let capacity_bytes = Accel.Config.sram_budget_bytes cfg in
      let run p =
        (Lcmm.Policies.run metric ~dtype ~capacity_bytes vbufs p).Lcmm.Policies.latency
        *. 1e3
      in
      Printf.printf "%-13s | %9.3f %9.3f %9.3f %9.3f\n%!" model
        (run Lcmm.Policies.Umm_policy)
        (run Lcmm.Policies.Greedy)
        (run (Lcmm.Policies.Dnnk_policy Dnnk.Table_approx))
        (run (Lcmm.Policies.Dnnk_policy Dnnk.Exact_iterative)))
    suite;
  (* Under what capacity do the allocator and sharing choices separate?
     Repeat the comparison with the SRAM budget throttled. *)
  (* Element-wise fusion: when both designs fuse residual adds into the
     producing layer's drain (no DDR round-trip for the body branch), the
     ResNet gap narrows toward the paper's band. *)
  Printf.printf "\neltwise fusion (ResNet-152, UMM -> LCMM, predicted ms):\n";
  let rn = Models.Zoo.build "resnet152" in
  List.iter
    (fun fused ->
      let best style =
        List.filter_map
          (fun tile ->
            let cfg = Accel.Config.make ~tile ~fused_eltwise:fused ~style dtype in
            let res = Accel.Config.compute_resources cfg in
            if Fpga.Resource.fits res ~within:Fpga.Device.vu9p.Fpga.Device.total
            then
              Some
                (cfg, Accel.Latency.umm_total (Accel.Latency.profile_graph cfg rn))
            else None)
          (Accel.Dse.candidate_tiles ())
        |> List.fold_left
             (fun acc (c, l) ->
               match acc with Some (_, bl) when bl <= l -> acc | _ -> Some (c, l))
             None
      in
      match best Accel.Config.Umm, best Accel.Config.Lcmm with
      | Some (_, umm_lat), Some (lcfg, _) ->
        let plan = F.plan lcfg rn in
        Printf.printf "  fusion %-3s: %9.3f -> %9.3f (x%.2f)\n%!"
          (if fused then "on" else "off")
          (umm_lat *. 1e3)
          (plan.F.predicted_latency *. 1e3)
          (umm_lat /. plan.F.predicted_latency)
      | _, _ -> ())
    [ false; true ];
  (* Exact branch-and-bound reference at a capacity where it closes. *)
  Printf.printf "\nexact reference (GoogLeNet i16, 4 MB budget):\n";
  let gx = Models.Zoo.build "googlenet" in
  let dsex = Accel.Dse.run ~style:Accel.Config.Lcmm dtype gx in
  let mx = Metric.build gx (profiles_dse dsex) in
  let vbx =
    Metric.eligible_items mx ~memory_bound_only:true
    |> List.mapi (fun i item ->
           Lcmm.Vbuffer.singleton ~vbuf_id:i item
             ~size_bytes:(Metric.item_size_bytes dtype mx item))
  in
  let capx = 4 * 1024 * 1024 in
  let bb = Lcmm.Exact.solve ~node_budget:300_000 mx ~capacity_bytes:capx vbx in
  let dn = Lcmm.Dnnk.allocate mx ~capacity_bytes:capx vbx in
  Printf.printf "  branch-and-bound %9.3f ms (%s, %d nodes)\n"
    (bb.Lcmm.Exact.latency *. 1e3)
    (if bb.Lcmm.Exact.proven_optimal then "optimal" else "budget-truncated")
    bb.Lcmm.Exact.nodes_explored;
  Printf.printf "  dnnk             %9.3f ms (gap %.2f%%)\n"
    (dn.Lcmm.Dnnk.predicted_latency *. 1e3)
    (100. *. (dn.Lcmm.Dnnk.predicted_latency /. bb.Lcmm.Exact.latency -. 1.));
  Printf.printf "\ncapacity sweep (GoogLeNet i16, DNNK vs greedy, predicted ms):\n";
  let g = Models.Zoo.build "googlenet" in
  let dse = Accel.Dse.run ~style:Accel.Config.Lcmm dtype g in
  let cfg = dse.Accel.Dse.config in
  let metric = Metric.build g (profiles_dse dse) in
  let items = Metric.eligible_items metric ~memory_bound_only:true in
  let vbufs =
    List.mapi
      (fun i item ->
        Lcmm.Vbuffer.singleton ~vbuf_id:i item
          ~size_bytes:(Metric.item_size_bytes dtype metric item))
      items
  in
  let full_capacity = Accel.Config.sram_budget_bytes cfg in
  Printf.printf "  %-9s %9s %9s %9s %9s\n" "capacity" "umm" "greedy" "dnnk"
    "dnnk-ex";
  List.iter
    (fun percent ->
      let capacity_bytes = full_capacity * percent / 100 in
      let run p =
        (Lcmm.Policies.run metric ~dtype ~capacity_bytes vbufs p).Lcmm.Policies.latency
        *. 1e3
      in
      Printf.printf "  %7d%% %9.3f %9.3f %9.3f %9.3f\n%!" percent
        (run Lcmm.Policies.Umm_policy)
        (run Lcmm.Policies.Greedy)
        (run (Lcmm.Policies.Dnnk_policy Dnnk.Table_approx))
        (run (Lcmm.Policies.Dnnk_policy Dnnk.Exact_iterative)))
    [ 100; 25; 10; 5; 2 ];
  Printf.printf "\npass toggles (GoogLeNet i16, predicted ms):\n";
  let g = Models.Zoo.build "googlenet" in
  let dse = Accel.Dse.run ~style:Accel.Config.Lcmm dtype g in
  let base = F.default_options in
  List.iter
    (fun (name, options) ->
      let p = plan_dse ~options dse g in
      Printf.printf "  %-28s %9.3f\n%!" name (p.F.predicted_latency *. 1e3))
    [ ("full LCMM", base);
      ("no buffer sharing", { base with F.buffer_sharing = false });
      ("no splitting", { base with F.buffer_splitting = false });
      ("first-fit coloring", { base with F.coloring = Lcmm.Coloring.First_fit });
      ("all layers eligible", { base with F.memory_bound_only = false });
      ("feature reuse only", { base with F.weight_prefetch = false });
      ("weight prefetch only", { base with F.feature_reuse = false }) ];
  (* Sharing and splitting only separate once SRAM is scarce: repeat the
     toggles with the tensor budget capped at 1.5 MB. *)
  Printf.printf "\npass toggles under a 1.5 MB tensor budget (predicted ms):\n";
  let tight = { base with F.capacity_override = Some (1_536 * 1024) } in
  List.iter
    (fun (name, options) ->
      let p = plan_dse ~options dse g in
      Printf.printf "  %-28s %9.3f\n%!" name (p.F.predicted_latency *. 1e3))
    [ ("full LCMM", tight);
      ("no buffer sharing", { tight with F.buffer_sharing = false });
      ("no splitting", { tight with F.buffer_splitting = false });
      ("first-fit coloring", { tight with F.coloring = Lcmm.Coloring.First_fit });
      ("exact-iterative DNNK", { tight with F.compensation = Dnnk.Exact_iterative }) ];
  (* Partial weight pinning: finer slices place partial tensors when whole
     ones no longer fit (extension beyond the paper). *)
  Printf.printf
    "\nweight slicing under a 0.75 MB tensor budget (ResNet-152 i16, predicted ms):\n";
  let rn = Models.Zoo.build "resnet152" in
  let rn_dse = Accel.Dse.run ~style:Accel.Config.Lcmm dtype rn in
  List.iter
    (fun k ->
      let p =
        plan_dse
          ~options:
            { base with
              F.capacity_override = Some (768 * 1024);
              weight_slices = k }
          rn_dse rn
      in
      Printf.printf "  %d slice(s): %9.3f\n%!" k (p.F.predicted_latency *. 1e3))
    [ 1; 2; 4; 8 ]

let energy () =
  header "Energy: per-inference DDR traffic and energy (extension)";
  Printf.printf "%-14s %-4s | %9s %9s | %9s %9s | %7s\n" "model" "prec"
    "UMM GB" "LCMM GB" "UMM mJ" "LCMM mJ" "saving";
  List.iter
    (fun model ->
      List.iter
        (fun dtype ->
          let c = comparison model dtype in
          let m = c.F.lcmm_plan.F.metric in
          let on_chip = c.F.lcmm_plan.F.allocation.Dnnk.on_chip in
          let t_umm = Lcmm.Traffic.umm m in
          let t_lcmm = Lcmm.Traffic.of_allocation m ~on_chip in
          let e_umm =
            Lcmm.Traffic.energy_of_allocation m ~dtype
              ~on_chip:Lcmm.Metric.Item_set.empty
          in
          let e_lcmm = Lcmm.Traffic.energy_of_allocation m ~dtype ~on_chip in
          let ju = Lcmm.Traffic.total_joules e_umm in
          let jl = Lcmm.Traffic.total_joules e_lcmm in
          Printf.printf "%-14s %-4s | %9.3f %9.3f | %9.3f %9.3f | %6.0f%%\n%!"
            model
            (Tensor.Dtype.to_string dtype)
            (float_of_int (Lcmm.Traffic.total_bytes t_umm) /. 1e9)
            (float_of_int (Lcmm.Traffic.total_bytes t_lcmm) /. 1e9)
            (ju *. 1e3) (jl *. 1e3)
            (100. *. (1. -. (jl /. ju))))
        Tensor.Dtype.all)
    suite

let sensitivity () =
  header "Sensitivity: calibration knobs vs headline speedup (GoogLeNet i16)";
  let g = Models.Zoo.build "googlenet" in
  let dtype = Tensor.Dtype.I16 in
  (* Hold the tile shapes at the DSE winners of the default calibration
     so the sweep isolates the memory system. *)
  let { Accel.Dse.umm; lcmm } = Accel.Dse.run_both dtype g in
  let umm_tile = umm.Accel.Dse.config.Accel.Config.tile
  and lcmm_tile = lcmm.Accel.Dse.config.Accel.Config.tile in
  Format.printf "%a@."
    (fun ppf () ->
      Lcmm.Sensitivity.pp_points ppf "ddr-eff"
        (Lcmm.Sensitivity.ddr_efficiency_sweep ~umm_tile ~lcmm_tile dtype g))
    ();
  Format.printf "%a@."
    (fun ppf () ->
      Lcmm.Sensitivity.pp_points ppf "burst-ovh"
        (Lcmm.Sensitivity.burst_overhead_sweep ~umm_tile ~lcmm_tile dtype g))
    ()

let schedule_experiment () =
  header "Schedule: memory-aware reordering vs builder order (extension)";
  let dtype = Tensor.Dtype.I16 in
  Printf.printf "%-14s | %8s %8s %8s | %9s %9s %9s\n" "model" "bfs-pk"
    "build-pk" "mem-pk" "bfs-area" "bld-area" "mem-area";
  List.iter
    (fun name ->
      let g = Models.Zoo.build name in
      let peak order =
        float_of_int (Dnn_graph.Schedule.peak_live_bytes dtype g order) /. 1e6
      in
      let area order =
        float_of_int (Dnn_graph.Schedule.live_area dtype g order) /. 1e6
      in
      let bfs = Dnn_graph.Schedule.breadth_first g in
      let bld = Dnn_graph.Schedule.default g in
      let mem = Dnn_graph.Schedule.memory_aware dtype g in
      Printf.printf "%-14s | %8.2f %8.2f %8.2f | %9.1f %9.1f %9.1f\n%!" name
        (peak bfs) (peak bld) (peak mem) (area bfs) (area bld) (area mem))
    (suite @ [ "densenet121"; "mobilenet_v2"; "squeezenet" ]);
  Printf.printf
    "(peak MB | liveness area MB-slots; lower is better.  The peak is set\n";
  Printf.printf
    " by the linear stem in all six models; the area shows the reordering.)\n" 

(* ------------------------------------------------------------------ *)

let zoo () =
  header "Zoo sweep: UMM vs LCMM across all thirteen models (16-bit)";
  Printf.printf "%s\n" Lcmm.Report.comparison_header;
  List.iter
    (fun e ->
      let model = e.Models.Zoo.model_name in
      let c = comparison model Tensor.Dtype.I16 in
      Printf.printf "%s\n%!" (Lcmm.Report.comparison_row c))
    Models.Zoo.all

(* ------------------------------------------------------------------ *)

(* Multi-tenant board runtime: greedy vs EDF vs the optimized schedule
   search.  The fair-share mixes stick to tenants with comparable
   prefetch-slack scales (homogeneous replicas, googlenet+vgg16) —
   there EDF's urgency-ordering of the bus pays off in makespan; mixing
   a short-node model like alexnet against much longer tenants makes
   EDF trade makespan for per-tenant latency instead (see DESIGN.md).
   The priority-arbitrated mixes pit a high-priority tenant against
   bandwidth-hungry background tenants; there the optimizer's hp-first
   objective should cut the high-priority slowdown without giving up
   makespan.  Each mix entry is (label, arbitration,
   [(model, replicas, priority)]). *)
let runtime_mixes =
  let fair = Lcmm_runtime.Arbiter.Fair_share in
  let prio = Lcmm_runtime.Arbiter.Priority in
  [ ("alexnet x2", fair, [ ("alexnet", 2, 0) ]);
    ("googlenet x2", fair, [ ("googlenet", 2, 0) ]);
    ("vgg16 x2", fair, [ ("vgg16", 2, 0) ]);
    ("resnet50 x2", fair, [ ("resnet50", 2, 0) ]);
    ("googlenet + vgg16", fair, [ ("googlenet", 1, 0); ("vgg16", 1, 0) ]);
    ("resnet50! + vgg16 x2", prio, [ ("resnet50", 1, 0); ("vgg16", 2, 1) ]);
    ( "googlenet!x2 + alexnet x2", prio,
      [ ("googlenet", 2, 0); ("alexnet", 2, 1) ] );
    ( "mobilenet! + resnet152 + vgg16", prio,
      [ ("mobilenet_v2", 1, 0); ("resnet152", 1, 1); ("vgg16", 1, 1) ] );
    ( "squeezenet!x2 + inception x2", prio,
      [ ("squeezenet", 2, 0); ("inception_v4", 2, 1) ] );
    ( "alexnet! + vgg16 + resnet50", prio,
      [ ("alexnet", 1, 0); ("vgg16", 1, 1); ("resnet50", 1, 1) ] ) ]

let runtime_specs mix =
  List.concat_map
    (fun (model, count, priority) ->
      let graph = Models.Zoo.build model in
      List.init count (fun k ->
          { Lcmm_runtime.Runtime.name = Printf.sprintf "%s#%d" model k;
            model; graph; priority; arrival = 0. }))
    mix

let runtime_report ?(channels = 1) scheduler arbitration mix =
  Lcmm_runtime.Runtime.run
    { Lcmm_runtime.Runtime.default_options with scheduler; arbitration;
      channels }
    (runtime_specs mix)

(* Worst slowdown among the highest-priority (lowest value) tenants —
   the metric the optimizer minimizes first under priority
   arbitration. *)
let runtime_hp_slowdown (r : Lcmm_runtime.Report.t) =
  let ts = r.Lcmm_runtime.Report.tenants in
  let hp =
    List.fold_left
      (fun acc (t : Lcmm_runtime.Report.tenant_report) ->
        min acc t.Lcmm_runtime.Report.priority)
      max_int ts
  in
  List.fold_left
    (fun acc (t : Lcmm_runtime.Report.tenant_report) ->
      if t.Lcmm_runtime.Report.priority = hp then
        Float.max acc t.Lcmm_runtime.Report.slowdown
      else acc)
    1. ts

type runtime_row = {
  rt_label : string;
  rt_arbitration : Lcmm_runtime.Arbiter.t;
  rt_greedy : Lcmm_runtime.Report.t;
  rt_edf : Lcmm_runtime.Report.t;
  rt_opt : Lcmm_runtime.Report.t;
}

let runtime_experiment () =
  header
    "Multi-tenant runtime: greedy vs EDF vs optimized transfer \
     scheduling (equal SRAM partition, 16-bit, VU9P)";
  Printf.printf "%-30s %5s %9s %9s %9s %7s %7s %7s %6s\n" "mix" "arb"
    "greedy ms" "edf ms" "opt ms" "gain %" "hp edf" "hp opt" "rnds";
  let rows =
    List.map
      (fun (label, arbitration, mix) ->
        let greedy =
          runtime_report Lcmm_runtime.Scheduler.Greedy arbitration mix
        in
        let edf = runtime_report Lcmm_runtime.Scheduler.Edf arbitration mix in
        let opt =
          runtime_report Lcmm_runtime.Scheduler.Optimized arbitration mix
        in
        let gain =
          100.
          *. (edf.Lcmm_runtime.Report.makespan_ms
             -. opt.Lcmm_runtime.Report.makespan_ms)
          /. edf.Lcmm_runtime.Report.makespan_ms
        in
        let rounds, converged =
          match opt.Lcmm_runtime.Report.schedule with
          | Some s ->
            ( s.Lcmm_runtime.Report.sched_rounds,
              s.Lcmm_runtime.Report.sched_converged )
          | None -> (0, false)
        in
        Printf.printf "%-30s %5s %9.3f %9.3f %9.3f %7.2f %7.2f %7.2f %5d%s\n%!"
          label
          (match arbitration with
           | Lcmm_runtime.Arbiter.Fair_share -> "fair"
           | Lcmm_runtime.Arbiter.Priority -> "prio")
          greedy.Lcmm_runtime.Report.makespan_ms
          edf.Lcmm_runtime.Report.makespan_ms
          opt.Lcmm_runtime.Report.makespan_ms gain (runtime_hp_slowdown edf)
          (runtime_hp_slowdown opt) rounds
          (if converged then "*" else "");
        { rt_label = label; rt_arbitration = arbitration; rt_greedy = greedy;
          rt_edf = edf; rt_opt = opt })
      runtime_mixes
  in
  (* Per-channel utilization of a 4-channel optimized run on the
     heterogeneous fair-share mix: static striping exposes imbalance,
     which is exactly what the column is there to show. *)
  let chan_mix =
    List.find_map
      (fun (label, _, mix) ->
        if label = "googlenet + vgg16" then Some mix else None)
      runtime_mixes
    |> Option.get
  in
  let chan =
    runtime_report ~channels:4 Lcmm_runtime.Scheduler.Optimized
      Lcmm_runtime.Arbiter.Fair_share chan_mix
  in
  let chan_busy =
    Array.to_list
      (Array.map
         (Lcmm_runtime.Report.channel_busy_fraction
            ~channels:chan.Lcmm_runtime.Report.channels
            ~makespan_ms:chan.Lcmm_runtime.Report.makespan_ms)
         chan.Lcmm_runtime.Report.channel_timelines)
  in
  Printf.printf
    "\ngooglenet + vgg16 @ 4 channels (optimized): %.3f ms | per-channel \
     busy %s\n%!"
    chan.Lcmm_runtime.Report.makespan_ms
    (String.concat " / "
       (List.map (fun b -> Printf.sprintf "%.0f%%" (100. *. b)) chan_busy));
  let eps = 1e-9 in
  let all_not_worse =
    List.for_all
      (fun r ->
        r.rt_opt.Lcmm_runtime.Report.makespan_ms
        <= Float.min r.rt_greedy.Lcmm_runtime.Report.makespan_ms
             r.rt_edf.Lcmm_runtime.Report.makespan_ms
           +. eps)
      rows
  in
  let priority_rows =
    List.filter
      (fun r -> r.rt_arbitration = Lcmm_runtime.Arbiter.Priority)
      rows
  in
  let hp_reduced =
    List.length
      (List.filter
         (fun r ->
           runtime_hp_slowdown r.rt_opt
           < runtime_hp_slowdown r.rt_edf -. 1e-6)
         priority_rows)
  in
  Printf.printf
    "optimized never worse than greedy/edf: %b | hp slowdown reduced on \
     %d of %d priority mixes\n%!"
    all_not_worse hp_reduced (List.length priority_rows);
  let tenant_json (t : Lcmm_runtime.Report.tenant_report) =
    Json.Obj
      [ ("name", Json.String t.Lcmm_runtime.Report.name);
        ("priority", Json.Int t.Lcmm_runtime.Report.priority);
        ("latency_ms", Json.Float t.Lcmm_runtime.Report.latency_ms);
        ("slowdown", Json.Float t.Lcmm_runtime.Report.slowdown) ]
  in
  let row_json r =
    let g = r.rt_greedy and e = r.rt_edf and o = r.rt_opt in
    let gain =
      100.
      *. (e.Lcmm_runtime.Report.makespan_ms
         -. o.Lcmm_runtime.Report.makespan_ms)
      /. e.Lcmm_runtime.Report.makespan_ms
    in
    let sched =
      match o.Lcmm_runtime.Report.schedule with
      | None -> []
      | Some s ->
        [ ("sched_rounds", Json.Int s.Lcmm_runtime.Report.sched_rounds);
          ( "sched_converged",
            Json.Bool s.Lcmm_runtime.Report.sched_converged );
          ("sched_chosen", Json.String s.Lcmm_runtime.Report.sched_chosen)
        ]
    in
    Json.Obj
      ([ ("mix", Json.String r.rt_label);
         ( "arbitration",
           Json.String
             (match r.rt_arbitration with
              | Lcmm_runtime.Arbiter.Fair_share -> "fair-share"
              | Lcmm_runtime.Arbiter.Priority -> "priority") );
         ("greedy_makespan_ms", Json.Float g.Lcmm_runtime.Report.makespan_ms);
         ("edf_makespan_ms", Json.Float e.Lcmm_runtime.Report.makespan_ms);
         ( "optimized_makespan_ms",
           Json.Float o.Lcmm_runtime.Report.makespan_ms );
         ("optimized_gain_pct", Json.Float gain);
         ( "optimized_not_worse",
           Json.Bool
             (o.Lcmm_runtime.Report.makespan_ms
              <= Float.min g.Lcmm_runtime.Report.makespan_ms
                   e.Lcmm_runtime.Report.makespan_ms
                 +. eps) );
         ("greedy_hp_slowdown", Json.Float (runtime_hp_slowdown g));
         ("edf_hp_slowdown", Json.Float (runtime_hp_slowdown e));
         ("optimized_hp_slowdown", Json.Float (runtime_hp_slowdown o));
         ( "greedy_bus_busy",
           Json.Float g.Lcmm_runtime.Report.bus_busy_fraction );
         ("edf_bus_busy", Json.Float e.Lcmm_runtime.Report.bus_busy_fraction);
         ( "optimized_bus_busy",
           Json.Float o.Lcmm_runtime.Report.bus_busy_fraction ) ]
      @ sched
      @ [ ( "optimized_tenants",
            Json.List
              (List.map tenant_json o.Lcmm_runtime.Report.tenants) ) ])
  in
  Json.Obj
    [ ("experiment", Json.String "runtime");
      ("rows", Json.List (List.map row_json rows));
      ( "channels4",
        Json.Obj
          [ ("mix", Json.String "googlenet + vgg16");
            ( "optimized_makespan_ms",
              Json.Float chan.Lcmm_runtime.Report.makespan_ms );
            ( "channel_busy_fractions",
              Json.List (List.map (fun b -> Json.Float b) chan_busy) ) ]
      );
      ("all_not_worse", Json.Bool all_not_worse);
      ("priority_mix_count", Json.Int (List.length priority_rows));
      ("hp_reduced_count", Json.Int hp_reduced) ]

(* Fault injection: how gracefully the board degrades as the fault
   intensity rises.  One seeded spec per intensity scales the stall and
   failure probabilities, deepens the bandwidth droop and grows the SRAM
   bank loss together; intensity 0 is the bit-exact fault-free engine
   and the curve's baseline. *)
let fault_intensities = [ 0.; 0.01; 0.02; 0.05; 0.1; 0.2 ]

let fault_spec_at intensity =
  if intensity <= 0. then None
  else
    let text =
      Printf.sprintf
        "seed=42,stall:%.3f:0.2,fail:%.3f,droop@2:4:%.2f,bankloss@3:%dk"
        intensity (intensity /. 2.)
        (Float.max 0.4 (1. -. intensity))
        (max 1 (int_of_float (intensity *. 32768.)))
    in
    match Fault.Spec.of_string text with
    | Ok s -> Some s
    | Error msg -> failwith ("fault_spec_at: " ^ msg)

let faults_experiment () =
  header
    "Fault injection: latency degradation vs fault intensity (alexnet x2 + \
     squeezenet, fair/EDF, 16-bit, VU9P, seed 42)";
  let mix = [ ("alexnet", 2, 0); ("squeezenet", 1, 0) ] in
  Printf.printf "%-10s %12s %8s %8s %8s %11s %9s %8s\n" "intensity"
    "makespan ms" "x base" "retries" "stalls" "evicted MB" "degrades"
    "aborted";
  let baseline = ref 0. in
  let rows =
    List.map
      (fun intensity ->
        let faults = fault_spec_at intensity in
        let report =
          Lcmm_runtime.Runtime.run
            { Lcmm_runtime.Runtime.default_options with faults }
            (runtime_specs mix)
        in
        let makespan = report.Lcmm_runtime.Report.makespan_ms in
        if intensity = 0. then baseline := makespan;
        let sum f =
          List.fold_left
            (fun acc (t : Lcmm_runtime.Report.tenant_report) ->
              acc + f t.Lcmm_runtime.Report.faults)
            0 report.Lcmm_runtime.Report.tenants
        in
        let retries = sum (fun f -> f.Lcmm_runtime.Engine.retries) in
        let stalls = sum (fun f -> f.Lcmm_runtime.Engine.stalls) in
        let degrades = sum (fun f -> f.Lcmm_runtime.Engine.degraded) in
        let evicted = sum (fun f -> f.Lcmm_runtime.Engine.evicted_bytes) in
        let aborted =
          List.length
            (List.filter
               (fun (t : Lcmm_runtime.Report.tenant_report) ->
                 match t.Lcmm_runtime.Report.status with
                 | Lcmm_runtime.Report.Aborted _ -> true
                 | _ -> false)
               report.Lcmm_runtime.Report.tenants)
        in
        let degradation =
          if !baseline > 0. then makespan /. !baseline else 1.
        in
        Printf.printf "%-10.2f %12.3f %8.2f %8d %8d %11.2f %9d %8d\n%!"
          intensity makespan degradation retries stalls
          (float_of_int evicted /. 1e6)
          degrades aborted;
        (intensity, faults, makespan, degradation, retries, stalls, evicted,
         degrades, aborted))
      fault_intensities
  in
  let row_json
      (intensity, faults, makespan, degradation, retries, stalls, evicted,
       degrades, aborted) =
    Json.Obj
      [ ("intensity", Json.Float intensity);
        ( "fault_spec",
          match faults with
          | None -> Json.Null
          | Some s -> Json.String (Fault.Spec.to_string s) );
        ("makespan_ms", Json.Float makespan);
        ("degradation", Json.Float degradation);
        ("retries", Json.Int retries);
        ("stalls", Json.Int stalls);
        ("evicted_bytes", Json.Int evicted);
        ("degrades", Json.Int degrades);
        ("aborted", Json.Int aborted) ]
  in
  Json.Obj
    [ ("experiment", Json.String "faults");
      ("rows", Json.List (List.map row_json rows)) ]

(* Planner throughput tracking: per-pass wall time and whole plans/sec
   on seeded Gen graphs well past zoo scale.  Each run is one
   [Framework.plan] call; each per-pass column is the least time that
   pass took over the row's reps. *)
let perf_sizes = [ 64; 256; 1024; 4096; 16384 ]

(* Skip-family (DenseNet-style) graphs: few nodes, very wide fan-in
   (each node reads about half the values before it), so DNNK's time
   goes to the static-gain sort: one Eq. 1 kernel call per affected
   node of every buffer, each reading ~N/2 input slots of the mark.
   Every buffer fits at these sizes, so the DP never runs.  The same
   seeds as the skip graphs perfbench's plan-scale plans. *)
let perf_skip_sizes = [ 256; 384; 512 ]

(* [f ()] and its wall time in microseconds. *)
let time_us f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e6)

(* The runtime's schedule search on its heaviest contended mix:
   squeezenet x2 at priority 0 and inception_v4 x2 at priority 1, under
   priority arbitration on one DDR channel, each tenant planned at the
   whole SRAM budget.  Returns the best-of-50 wall time of one
   [Optimizer.search], its candidate count, the engine runs it made,
   and the best-of-50 wall time of simulating the four plans alone with
   [Sim.Engine]: code the search does not run, timed in the same reps,
   so search_us / isolated_sim_us reads the search's cost on any host
   speed.  Also two counts that no host changes: the minor-heap words
   one search allocates, and the words one EDF engine run of the four
   tenants allocates per node and transfer. *)
let runtime_search () =
  let module R = Lcmm_runtime in
  let dtype = Tensor.Dtype.I16 in
  let simulate (plan : F.plan) =
    Sim.Engine.simulate ?prefetch:plan.F.prefetch plan.F.metric
      ~on_chip:plan.F.allocation.Lcmm.Dnnk.on_chip
  in
  let tenants =
    List.concat_map
      (fun (model, replicas, priority) ->
        let g = Models.Zoo.build model in
        let plan = plan_dse (Accel.Dse.run ~style:Accel.Config.Lcmm dtype g) g in
        let iso = simulate plan in
        List.init replicas (fun k ->
            ( plan,
              { R.Engine.label = Printf.sprintf "%s#%d" model k;
                metric = plan.F.metric;
                on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
                prefetch = plan.F.prefetch;
                arrival = 0.;
                priority;
                slack = R.Runtime.slack_of plan iso;
                replan = None },
              iso )))
      [ ("squeezenet", 2, 0); ("inception_v4", 2, 1) ]
  in
  let plans = List.map (fun (p, _, _) -> p) tenants in
  let inputs = Array.of_list (List.map (fun (_, i, _) -> i) tenants) in
  let isos = Array.of_list (List.map (fun (_, _, s) -> s) tenants) in
  (* The search asks for one fault injector per engine run it makes. *)
  let runs = ref 0 in
  let make_faults () = incr runs; None in
  let search () =
    R.Optimizer.search ~hp_first:true ~arbitration:R.Arbiter.Priority
      ~channels:1 ~make_faults ~isos inputs
  in
  let minor_words f =
    let before = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. before)
  in
  ignore (search ());
  let _, search_words = minor_words search in
  let compiled = Array.map R.Engine.compile inputs in
  let engine_run () =
    R.Engine.run_compiled ~arbitration:R.Arbiter.Priority
      ~scheduler:R.Scheduler.Edf compiled
  in
  ignore (engine_run ());
  let r, engine_words = minor_words engine_run in
  let items =
    Array.fold_left
      (fun acc (c : R.Engine.compiled) -> acc + Array.length c.R.Engine.profiles)
      (List.length r.R.Engine.transfers)
      compiled
  in
  let search_us = ref infinity and sim_us = ref infinity in
  let candidates = ref 0 in
  (* The planner rows leave a heap of hundreds of MB behind; a major
     collection cycle over it would charge its slices to every rep. *)
  Gc.compact ();
  for _ = 1 to 50 do
    let (), t = time_us (fun () -> List.iter (fun p -> ignore (simulate p)) plans) in
    sim_us := Float.min !sim_us t;
    runs := 0;
    let o, t = time_us search in
    search_us := Float.min !search_us t;
    candidates := List.length o.R.Optimizer.candidates
  done;
  ( !search_us, !candidates, !runs, !sim_us, search_words,
    engine_words /. float_of_int items )

(* A repeated compile (i16) on an in-process engine: [Engine.handle]'s
   hit path of key, lookup and pool hand-off, no planning.  Best-of-300
   per model, the two models alternating in every rep so both see the
   same host load.  resnet152's canonical text is 22x alexnet's (30.5
   against 1.4 KB), so resnet152_per_alexnet reads 3.5-7 when a hit
   hashes the model (the hand-off is in both times) and ~1 when it
   answers from the model's digest memo, on any host speed. *)
let warm_hit_models = [ "alexnet"; "resnet152" ]

(* The work of one warm hit through [Engine.handle_line], the whole
   request path (parse, key, lookup, hand-off, render): minor words and
   words allocated directly in the major heap, summed over the calling
   domain (which renders the reply) and the worker (which looks the
   plan up), averaged over 1000 hits.  Unlike a time, no host changes
   these. *)
let warm_hit_ops =
  [ ("compile", {|{"op":"compile","id":1,"model":"alexnet","dtype":"i16"}|});
    ("simulate", {|{"op":"simulate","id":1,"model":"alexnet","dtype":"i16"}|}) ]

(* The words the current domain has allocated so far: in the minor heap,
   and directly in the major heap.  [Gc.minor_words] is exact; the minor
   count in [Gc.counters] is not on OCaml 5.1 (one mixed-1024 plan read
   675k-1030k words there against 865,307 every time from
   [Gc.minor_words]), but its major less promoted words are. *)
let domain_words () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let warm_hit_words engine =
  let module Svc = Lcmm_service in
  let hits = 1000 in
  let both () =
    let minor, direct = domain_words () in
    let w_minor, w_direct = Lcmm.Pool.run (Svc.Engine.pool engine) domain_words in
    (minor +. w_minor, direct +. w_direct)
  in
  List.map
    (fun (op, line) ->
      let reply = ref (Svc.Engine.handle_line engine line) in
      let minor0, direct0 = both () in
      for _ = 1 to hits do
        reply := Svc.Engine.handle_line engine line
      done;
      let minor1, direct1 = both () in
      (match Result.map (Json.member_opt "cache") (Json.of_string !reply) with
      | Ok (Some (Json.String "hit")) -> ()
      | _ -> failwith ("bench perf: a repeated " ^ op ^ " missed the plan cache"));
      let per_hit x = x /. float_of_int hits in
      (op, per_hit (minor1 -. minor0), per_hit (direct1 -. direct0)))
    warm_hit_ops

let warm_hits () =
  let module Svc = Lcmm_service in
  let engine = Svc.Engine.create ~pool:(Lcmm.Pool.create ~domains:1 ()) () in
  Fun.protect
    ~finally:(fun () -> Svc.Engine.shutdown engine)
    (fun () ->
      let envs =
        List.map
          (fun model ->
            match
              Svc.Protocol.request_of_line
                (Printf.sprintf {|{"op":"compile","model":"%s","dtype":"i16"}|}
                   model)
            with
            | Ok env -> env
            | Error msg -> failwith msg)
          warm_hit_models
      in
      List.iter (fun env -> ignore (Svc.Engine.handle engine env)) envs;
      let best = Array.make (List.length envs) infinity in
      for _ = 1 to 300 do
        List.iteri
          (fun i env ->
            let r, t = time_us (fun () -> Svc.Engine.handle engine env) in
            if r.Svc.Engine.cache <> Svc.Engine.Hit then
              failwith "bench perf: a repeated compile missed the plan cache";
            best.(i) <- Float.min best.(i) t)
          envs
      done;
      (List.combine warm_hit_models (Array.to_list best), warm_hit_words engine))

(* A cold capacity sweep, the traffic the stage memo serves: googlenet
   at i16 with 16 capacity overrides (1/32 to 1/2 of the SRAM budget),
   compile and simulate alternating and fusion on every fourth request,
   through a fresh engine, so every request misses the plan cache.  The
   model's DSE designs and prepared stage depend on none of those
   options, so the sweep should run each once and take the other 15
   from the model's stage memo.  No other part of [bench perf] computes
   googlenet, so its memo starts cold.  Returns the request count and
   the engine's stage counters: counts of work, which no host changes
   (the sweep's wall time is mostly the process's first request). *)
let cold_sweep_model = "googlenet"

let cold_sweep () =
  let module Svc = Lcmm_service in
  let budget =
    Accel.Config.sram_budget_bytes
      (Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16)
  in
  let engine = Svc.Engine.create ~pool:(Lcmm.Pool.create ~domains:1 ()) () in
  Fun.protect
    ~finally:(fun () -> Svc.Engine.shutdown engine)
    (fun () ->
      let envs =
        List.init 16 (fun i ->
            let line =
              Printf.sprintf
                {|{"op":"%s","model":"%s","dtype":"i16","options":{"capacity_override":%d,"fusion":%b}}|}
                (if i mod 2 = 0 then "compile" else "simulate")
                cold_sweep_model
                (budget * (i + 1) / 32)
                (i mod 4 = 1)
            in
            match Svc.Protocol.request_of_line line with
            | Ok env -> env
            | Error msg -> failwith msg)
      in
      List.iter
        (fun env ->
          let r = Svc.Engine.handle engine env in
          match r.Svc.Engine.cache, r.Svc.Engine.outcome with
          | Svc.Engine.Miss, Ok _ -> ()
          | _ -> failwith "bench perf: a cold sweep request did not compute")
        envs;
      let count k =
        match
          Json.member "stages" (Svc.Engine.stats_payload engine)
          |> Fun.flip Result.bind (Json.member k)
        with
        | Ok (Json.Int n) -> n
        | _ -> failwith ("bench perf: no stages." ^ k ^ " in stats")
      in
      (List.length envs, count "dse_runs", count "prepares", count "memo_hits"))

(* The words a prepared stage keeps alive, everything reachable from it
   counted: googlenet i16 prepared as the sweep's memo holds it.  Only
   O(items) of it is the planner's own (the interference index, the
   coloring and the compiled DNNK rows); the DP's compensation tables
   would add more.  Built outside any engine, after the sweep and the warm hits,
   so no engine's memo sees it and the hits' word counts do not
   collect its garbage. *)
let stage_words () =
  let g = Models.Zoo.build cold_sweep_model in
  let { Accel.Dse.config; table; _ } =
    (Accel.Dse.run_both Tensor.Dtype.I16 g).Accel.Dse.lcmm
  in
  Obj.reachable_words (Obj.repr (F.prepare config table g))

(* The codec work of one inline-graph request: the serve-cold
   workload's 1024-node mixed graph on its compile line, as
   perfbench/serve.ml's [cold_inputs] builds it (the same generator
   state, drawn through the zoo capacities and the smaller graphs first).
   Minor words per input byte for [Json.of_string] and for
   [Protocol.request_of_line] on the line, and minor words to render the
   graph's canonical bytes (what its cache key digests): counts of work,
   which no host changes.  Best-of-20 times beside them split the
   request between the scanner, the graph decoder and the renderer. *)
let inline_codec_nodes = 1024

let inline_codec () =
  let module Svc = Lcmm_service in
  let st = Random.State.make [| 2026; 2 |] in
  let budget =
    Accel.Config.sram_budget_bytes
      (Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16)
  in
  let caps_per_model = 16 in
  List.iter
    (fun _ ->
      for _ = 1 to caps_per_model do
        ignore (Random.State.int st (budget / 2))
      done)
    Models.Zoo.all;
  let sizes =
    List.concat
      (List.init 5 (fun _ -> [ 64; 128; 64; 256; 128; 64; 512; 128; 64; 256; 64 ]))
    @ [ 1024; 1024 ]
  in
  (* The graphs are drawn in the workload's order up to the first one of
     [inline_codec_nodes] that is a compile (graph [i] is one when [i]
     is even), so the state moves as the workload's does. *)
  let rec draw i = function
    | [] -> failwith "bench perf: no inline compile graph"
    | nodes :: rest ->
      let g = Check.Gen.sized_graph ~family:Check.Gen.Mixed st ~nodes in
      if nodes = inline_codec_nodes && i mod 2 = 0 then (i, g)
      else draw (i + 1) rest
  in
  let i, g = draw 0 sizes in
  let line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.String "compile");
           ("id", Json.Int ((List.length Models.Zoo.all * caps_per_model) + i));
           ("graph", Dnn_serial.Codec.graph_to_json g);
           ( "options",
             Json.Obj
               [ ("capacity_override", Json.Int (budget / 4));
                 ("fusion", Json.Bool false) ] ) ])
  in
  let ok = function Ok v -> v | Error msg -> failwith ("bench perf: " ^ msg) in
  let graph_v = ok (Json.member "graph" (ok (Json.of_string line))) in
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let per_byte f = words f /. float_of_int (String.length line) in
  let best f =
    let t = ref infinity in
    for _ = 1 to 20 do
      t := Float.min !t (snd (time_us f))
    done;
    !t
  in
  let scan () = Json.of_string line in
  let decode () = Dnn_serial.Codec.graph_of_json graph_v in
  let canonical () = Svc.Cache_key.canonical g in
  let request () = Svc.Protocol.request_of_line line in
  ( String.length line,
    per_byte scan,
    per_byte request,
    words canonical,
    [ ("of_string_us", best scan); ("graph_of_json_us", best decode);
      ("canonical_us", best canonical); ("request_of_line_us", best request) ] )

let perf_experiment () =
  header
    "Planner throughput: per-pass and tile-DSE wall time on seeded random graphs \
     (mixed- and skip-family Gen, 16-bit, quarter SRAM budget)";
  let dtype = Tensor.Dtype.I16 in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let options =
    { F.default_options with
      F.capacity_override = Some (Accel.Config.sram_budget_bytes cfg / 4) }
  in
  let icd_us (p : F.plan) =
    let t = p.F.pass_times in
    t.F.interference_us +. t.F.coloring_us +. t.F.dnnk_us
  in
  Printf.printf "%6s %7s %7s %6s %6s | %12s | %10s | %10s %10s | %10s %10s\n"
    "family" "nodes" "items" "vbufs" "reps" "icd us" "plans/s" "dse us"
    "lcmm us" "profile us" "table us";
  let rows =
    List.map
      (fun (family, nodes) ->
        let st = Random.State.make [| 2026; nodes |] in
        let g = Check.Gen.sized_graph ~family st ~nodes in
        let reps =
          if nodes >= 16384 then 1
          else if nodes >= 4096 then 2
          else if nodes >= 1024 || family = Check.Gen.Skip then 3
          else 10
        in
        (* The tile DSE a compile runs before planning (both styles, one
           sweep), the LCMM-only one the runtime runs, and the graph table
           both build (the part of [profile_us] a compile takes from its
           DSE), timed on their own so the plan numbers below stay the
           planner's, and before the plans so that the planner's heap does
           not weigh on their collections.  They are cheap next to a plan,
           so each is the best of at least 20 reps, alternated so that all
           see the same host. *)
        let dse = ref infinity and dse_lcmm = ref infinity in
        let table = ref infinity in
        for _ = 1 to max reps 20 do
          let _, both = time_us (fun () -> Accel.Dse.run_both dtype g) in
          let _, lcmm =
            time_us (fun () -> Accel.Dse.run ~style:Accel.Config.Lcmm dtype g)
          in
          let _, compile =
            time_us (fun () ->
                Accel.Latency.table dtype ~fused_eltwise:false g)
          in
          dse := Float.min !dse both;
          dse_lcmm := Float.min !dse_lcmm lcmm;
          table := Float.min !table compile
        done;
        (* Best-of-reps: wall-clock noise only ever inflates a run, so the
           minimum is the honest estimate of the pass cost.  Each pass
           column is its own minimum over the reps; [icd_us] is the
           interference+coloring+DNNK sum of the rep where that sum was
           least. *)
        let best = ref None in
        let pass_us = ref [] in
        let total_us = ref 0. in
        (* The words one plan allocates on this domain, a count no host
           changes: every rep reads the same. *)
        let plan_words = ref infinity in
        let words () =
          let minor, direct = domain_words () in
          minor +. direct
        in
        for rep = 1 to reps do
          let w0 = words () in
          let p, elapsed = time_us (fun () -> F.plan ~options cfg g) in
          plan_words := Float.min !plan_words (words () -. w0);
          total_us := !total_us +. elapsed;
          let passes = F.pass_times_assoc p.F.pass_times in
          pass_us :=
            (if rep = 1 then passes
             else
               List.map2 (fun (k, v) (_, w) -> (k, Float.min v w)) !pass_us
                 passes);
          match !best with
          | Some b when icd_us b <= icd_us p -> ()
          | _ -> best := Some p
        done;
        let p = Option.get !best in
        let items =
          List.length (Metric.eligible_items p.F.metric ~memory_bound_only:true)
        in
        let vbufs = List.length p.F.vbufs in
        let plans_per_sec = float_of_int reps *. 1e6 /. !total_us in
        let profile_us = List.assoc "profile_us" !pass_us in
        Printf.printf
          "%6s %7d %7d %6d %6d | %12.0f | %10.2f | %10.0f %10.0f | %10.0f %10.0f\n%!"
          (Check.Gen.family_name family) nodes items vbufs reps (icd_us p)
          plans_per_sec !dse !dse_lcmm profile_us !table;
        Json.Obj
          [ ("family", Json.String (Check.Gen.family_name family));
            ("nodes", Json.Int nodes);
            ("graph_nodes", Json.Int (Dnn_graph.Graph.node_count g));
            ("items", Json.Int items);
            ("vbufs", Json.Int vbufs);
            ( "pass_us",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) !pass_us) );
            ("table_us", Json.Float !table);
            ("icd_us", Json.Float (icd_us p));
            ("plan_words", Json.Int (int_of_float !plan_words));
            ("plans_per_sec", Json.Float plans_per_sec);
            ("dse_us", Json.Float !dse);
            ("dse_lcmm_us", Json.Float !dse_lcmm) ])
      (List.map (fun n -> (Check.Gen.Mixed, n)) perf_sizes
      @ List.map (fun n -> (Check.Gen.Skip, n)) perf_skip_sizes)
  in
  let search_us, candidates, engine_runs, sim_us, search_words, words_per_item =
    runtime_search ()
  in
  Printf.printf
    "schedule search, squeezenet!x2 + inception_v4 x2: %.0f us (%d candidates, \
     %d engine runs; the four plans simulated alone: %.0f us); %.0f minor \
     words, an engine run %.1f words per node and transfer\n%!"
    search_us candidates engine_runs sim_us search_words words_per_item;
  let sweep_requests, sweep_dse, sweep_prepares, sweep_hits = cold_sweep () in
  Printf.printf
    "cold capacity sweep, %s i16: %d requests, %d DSE runs, %d prepares, %d \
     stage-memo hits\n%!"
    cold_sweep_model sweep_requests sweep_dse sweep_prepares sweep_hits;
  let hits, hit_words = warm_hits () in
  let hit_us model = List.assoc model hits in
  let hit_ratio = hit_us "resnet152" /. hit_us "alexnet" in
  Printf.printf
    "warm compile hit, best of 300: alexnet %.1f us, resnet152 %.1f us \
     (resnet152/alexnet %.2f)\n%!"
    (hit_us "alexnet") (hit_us "resnet152") hit_ratio;
  List.iter
    (fun (op, minor, direct) ->
      Printf.printf
        "warm %s hit, alexnet i16: %.0f minor words, %.1f direct major \
         words\n%!"
        op minor direct)
    hit_words;
  let codec_bytes, scan_per_byte, request_per_byte, canonical_words, codec_us =
    inline_codec ()
  in
  Printf.printf
    "inline graph, mixed %d compile line (%d bytes): Json.of_string %.2f and \
     request_of_line %.2f minor words per byte, canonical bytes %.0f minor \
     words; %s\n%!"
    inline_codec_nodes codec_bytes scan_per_byte request_per_byte
    canonical_words
    (String.concat ", "
       (List.map (fun (k, us) -> Printf.sprintf "%s %.0f" k us) codec_us));
  let stage_words = stage_words () in
  Printf.printf "prepared stage, %s i16: %d words\n%!" cold_sweep_model
    stage_words;
  Json.Obj
    [ ("experiment", Json.String "perf");
      ("seed", Json.Int 2026);
      ("rows", Json.List rows);
      ( "runtime_search",
        Json.Obj
          [ ("mix", Json.String "squeezenet!x2 + inception_v4 x2");
            ("search_us", Json.Float search_us);
            ("candidates", Json.Int candidates);
            ("engine_runs", Json.Int engine_runs);
            ("isolated_sim_us", Json.Float sim_us);
            ("search_per_sim", Json.Float (search_us /. sim_us));
            ("search_minor_words", Json.Float search_words);
            ("engine_words_per_item", Json.Float words_per_item) ] );
      ( "cold_sweep",
        Json.Obj
          [ ("model", Json.String (cold_sweep_model ^ " i16"));
            ("requests", Json.Int sweep_requests);
            ("dse_runs", Json.Int sweep_dse);
            ("prepares", Json.Int sweep_prepares);
            ("memo_hits", Json.Int sweep_hits);
            ("stage_words", Json.Int stage_words) ] );
      ( "inline_codec",
        Json.Obj
          ([ ("graph", Json.String (Printf.sprintf "mixed %d compile line" inline_codec_nodes));
             ("bytes", Json.Int codec_bytes);
             ("of_string_words_per_byte", Json.Float scan_per_byte);
             ("request_words_per_byte", Json.Float request_per_byte);
             ("canonical_words", Json.Float canonical_words) ]
          @ List.map (fun (k, us) -> (k, Json.Float us)) codec_us) );
      ( "warm_hit",
        Json.Obj
          ([ ("op", Json.String "compile i16"); ("reps", Json.Int 300) ]
          @ List.map (fun (m, us) -> (m ^ "_us", Json.Float us)) hits
          @ [ ("resnet152_per_alexnet", Json.Float hit_ratio) ]
          @ List.concat_map
              (fun (op, minor, direct) ->
                [ (op ^ "_minor_words", Json.Float minor);
                  (op ^ "_direct_major_words", Json.Float direct) ])
              hit_words) ) ]

(* ------------------------------------------------------------------ *)
(* The sharded serving tier.  Both benches spawn `lcmm serve` children
   of this very binary over Unix sockets. *)

(* Open-loop load: a zoo-sampled mix of the four smallest models at 100
   rps against 1, 2 and 4 shards of 2 workers each, one second per step
   from 8 sender threads.  The saturation search doubles the rate until
   a rung fails, at most seven times (12800 rps, which bounds the bench
   at well under a minute), then bisects three rungs between the last
   rung that kept up and the first that did not; saturation_rps is that
   knee.  slo_pass holds when every measured p99 is within 250 ms. *)
let serve () =
  header "Serve: open-loop load on the sharded tier (zoo mix, 100 rps)";
  let rps = 100. and duration_s = 1. and threads = 8 and slo_p99_ms = 250. in
  let mix = Lcmm_tier.Loadgen.zoo_mix ~models:4 () in
  let bench_tier n =
    let socket_dir = tier_socket_dir () in
    let tier, cleanup =
      spawn_tier ~shards:n ~workers:2 ~vnodes:64 ~max_inflight:64
        ~cache_entries:256 ~cache_mb:64 ~cache_dir:None ~deadline_ms:None
        ~router_cache_entries:512 ~router_cache_mb:64 ~timing:false
        ~socket_dir ()
    in
    Fun.protect ~finally:cleanup (fun () ->
        let handler = Lcmm_tier.Tier.handle_line tier in
        (* Warm every plan once so the measured run exercises the
           serving path, not first-compile cost. *)
        List.iter (fun line -> ignore (handler line)) mix;
        let measured =
          Lcmm_tier.Loadgen.run ~handler ~mix ~rps ~duration_s ~threads ()
        in
        let saturation_rps, steps =
          Lcmm_tier.Loadgen.find_saturation ~handler ~mix ~start_rps:rps
            ~duration_s ~slo_p99_ms ~threads ~max_steps:8 ()
        in
        Printf.printf
          "%d shard(s): p50 %.2f ms  p99 %.2f ms  p999 %.2f ms  \
           saturation %.0f rps\n%!"
          n measured.Lcmm_tier.Loadgen.p50_ms
          measured.Lcmm_tier.Loadgen.p99_ms
          measured.Lcmm_tier.Loadgen.p999_ms saturation_rps;
        (n, measured, saturation_rps, steps))
  in
  let tiers = List.map bench_tier [ 1; 2; 4 ] in
  let slo_pass =
    List.for_all
      (fun (_, m, _, _) -> m.Lcmm_tier.Loadgen.p99_ms <= slo_p99_ms)
      tiers
  in
  Printf.printf "slo_pass: %b\n" slo_pass;
  Json.Obj
    [ ("experiment", Json.String "serve");
      ("slo_p99_ms", Json.Float slo_p99_ms);
      ("mix_requests", Json.Int (List.length mix));
      ( "tiers",
        Json.List
          (List.map
             (fun (n, m, saturation_rps, steps) ->
               Json.Obj
                 [ ("shards", Json.Int n);
                   ("measured", Lcmm_tier.Loadgen.result_to_json m);
                   ("saturation_rps", Json.Float saturation_rps);
                   ( "ladder",
                     Json.List
                       (List.map Lcmm_tier.Loadgen.result_to_json steps)
                   ) ])
             tiers) );
      ("slo_pass", Json.Bool slo_pass) ]

(* Chaos soak: the zoo mix through a deliberately faulty tier, over a
   ladder of fault intensities.  The report answers three questions:
   how much availability the resilience layer preserves (retries,
   hedges, failover), whether any fault ever reached a client as a
   silently wrong answer (every success is compared byte-for-byte
   against a fault-free reference), and whether the injection itself is
   reproducible (a digest over the per-rung fault/recovery counters —
   two runs with the same spec and seed must produce the same
   fingerprint).  The spec's probabilities scale by 0.25, 0.5 and 1.0
   (the magnitudes do not); each rung drives 300 unpaced requests over
   the four-model mix against 2 shards of 2 workers, with 2 retries, a
   150 ms hedge and a 250 ms call timeout.  chaos_pass needs 0.99
   availability at the middle rung and no divergent reply. *)
let chaos_spec =
  "seed=42,delay:0.08:40,hang:0.02,trunc:0.02,corrupt:0.02,reset:0.03"

let chaos () =
  header "Chaos: transport-fault soak of a 2-shard tier (zoo mix)";
  let spec = or_die (Fault.Spec.of_string chaos_spec) in
  let requests = 300 and shards = 2 and retries = 2 in
  let hedge_ms = 150. and call_timeout_ms = 250. in
  let availability_floor = 0.99 in
  let module Tier = Lcmm_tier.Tier in
  let module Loadgen = Lcmm_tier.Loadgen in
  let mix = Loadgen.zoo_mix ~models:4 () in
  (* The fault-free reference: an in-process engine rendering
     canonical (timing-free) responses — exactly the bytes the tier
     must re-render when it answers the same request correctly.
     [stats] answers are tier-specific and exempt. *)
  let reference_engine = Lcmm_service.Engine.create () in
  let reference_tbl = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok doc
        when Json.member_opt "op" doc = Some (Json.String "stats") ->
        ()
      | _ ->
        Hashtbl.replace reference_tbl line
          (Lcmm_service.Engine.handle_line ~timing:false reference_engine
             line))
    mix;
  Lcmm_service.Engine.shutdown reference_engine;
  let socket_dir = tier_socket_dir () in
  (* Determinism over realism for the breaker: a huge threshold keeps
     injected failures from tripping circuits whose open/close timing
     would couple the counters to the wall clock. *)
  let tier, cleanup =
    spawn_tier ~shards ~workers:2 ~vnodes:64 ~max_inflight:64
      ~cache_entries:256 ~cache_mb:64 ~cache_dir:None ~deadline_ms:None
      ~router_cache_entries:1 ~router_cache_mb:1 ~timing:false ~retries
      ~hedge_ms ~call_timeout_ms ~breaker_threshold:1_000_000 ~socket_dir ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let handler = Tier.handle_line tier in
      (* Warm the shard caches fault-free so rung traffic measures
         the serving path; the router cache is minimal (1 entry) so
         warm requests cannot short-circuit later rungs away from the
         wire the chaos injector sits on. *)
      List.iter (fun line -> ignore (handler line)) mix;
      let counters_before = ref (Tier.counter_list tier) in
      let delta after =
        List.map
          (fun (k, v) ->
            let v0 =
              match List.assoc_opt k !counters_before with
              | Some v0 -> v0
              | None -> 0
            in
            (k, v - v0))
          after
      in
      let bench_rung intensity =
        let rung_spec = Fault.Spec.scale_transport spec intensity in
        let chaos =
          match Lcmm_tier.Chaos.create rung_spec with
          | Some c -> c
          | None -> or_die (Error "scaled spec lost its transport clauses")
        in
        Tier.set_chaos tier (Some chaos);
        let measured =
          Loadgen.run ~handler ~mix ~rps:(float_of_int requests)
            ~duration_s:1.0 ~threads:1
            ~reference:(fun line -> Hashtbl.find_opt reference_tbl line)
            ()
        in
        Tier.set_chaos tier None;
        let after = Tier.counter_list tier in
        let tier_delta = delta after in
        counters_before := after;
        let availability =
          float_of_int measured.Loadgen.ok
          /. float_of_int (max 1 measured.Loadgen.sent)
        in
        Printf.printf
          "intensity %.2f: availability %.4f  p99 %.2f ms  divergent %d\n%!"
          intensity availability measured.Loadgen.p99_ms
          measured.Loadgen.divergent;
        (intensity, rung_spec, measured, availability,
         Lcmm_tier.Chaos.counter_list chaos, tier_delta)
      in
      let rungs = List.map bench_rung [ 0.25; 0.5; 1.0 ] in
      (* The reproducibility fingerprint: every injected-fault and
         recovery counter of every rung, in a canonical rendering.
         Same spec + seed + request stream => same digest. *)
      let fingerprint =
        rungs
        |> List.map (fun (intensity, _, m, _, chaos_counters, tier_delta) ->
               Printf.sprintf "%.4f|%s|%s|ok=%d;err=%d;div=%d" intensity
                 (String.concat ";"
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                       chaos_counters))
                 (String.concat ";"
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                       (List.filter
                          (fun (k, _) ->
                            List.mem k
                              [ "retries"; "hedges"; "hedge_wins";
                                "invalid_replies" ])
                          tier_delta)))
                 m.Loadgen.ok m.Loadgen.errors m.Loadgen.divergent)
        |> String.concat "\n"
        |> Dnn_serial.Codec.digest_string
      in
      let mid_availability =
        let n = List.length rungs in
        match List.nth_opt rungs (n / 2) with
        | Some (_, _, _, a, _, _) -> a
        | None -> 0.
      in
      let divergent_total =
        List.fold_left
          (fun acc (_, _, m, _, _, _) -> acc + m.Loadgen.divergent)
          0 rungs
      in
      let availability_pass = mid_availability >= availability_floor in
      let integrity_pass = divergent_total = 0 in
      Printf.printf
        "availability_pass: %b, integrity_pass: %b, fingerprint: %s\n"
        availability_pass integrity_pass fingerprint;
      Json.Obj
        [ ("experiment", Json.String "chaos");
          ("spec", Json.String (Fault.Spec.to_string spec));
          ("requests_per_rung", Json.Int requests);
          ("shards", Json.Int shards);
          ("retries", Json.Int retries);
          ("hedge_ms", Json.Float hedge_ms);
          ("call_timeout_ms", Json.Float call_timeout_ms);
          ( "rungs",
            Json.List
              (List.map
                 (fun ( intensity, rung_spec, m, availability,
                        chaos_counters, tier_delta ) ->
                   Json.Obj
                     [ ("intensity", Json.Float intensity);
                       ( "spec",
                         Json.String (Fault.Spec.to_string rung_spec) );
                       ("availability", Json.Float availability);
                       ("measured", Loadgen.result_to_json m);
                       ( "injected",
                         Json.Obj
                           (List.map
                              (fun (k, v) -> (k, Json.Int v))
                              chaos_counters) );
                       ( "tier",
                         Json.Obj
                           (List.map
                              (fun (k, v) -> (k, Json.Int v))
                              tier_delta) ) ])
                 rungs) );
          ("mid_availability", Json.Float mid_availability);
          ("availability_floor", Json.Float availability_floor);
          ("divergent_total", Json.Int divergent_total);
          ("counter_fingerprint", Json.String fingerprint);
          ("availability_pass", Json.Bool availability_pass);
          ("integrity_pass", Json.Bool integrity_pass);
          ( "chaos_pass",
            Json.Bool (availability_pass && integrity_pass) ) ])

(* Fusion ablation (i16): base LCMM against LCMM plus fused-layer
   segments and weight streaming, and against the TGPA-style stream-tile
   design, across the model zoo — latency and DDR traffic per model. *)
let fusion () =
  header "Fusion: LCMM vs LCMM + fused segments / weight streaming (16-bit)";
  let module Fz = Lcmm_fusion.Fusion in
  let dtype = Tensor.Dtype.I16 in
  let options = { F.default_options with F.fusion = true } in
  let rows, wins, saved =
    List.fold_left
      (fun (rows, wins, saved) e ->
        let model = e.Models.Zoo.model_name in
        let c =
          F.compare_designs ~options ~model dtype (e.Models.Zoo.build ())
        in
        let base = c.F.lcmm_plan in
        let fz = Fz.apply base in
        let capacity = Accel.Config.sram_budget_bytes base.F.config in
        let tile =
          Lcmm.Policies.run base.F.metric ~dtype ~capacity_bytes:capacity
            [] Lcmm.Policies.Stream_tile
        in
        let tile_traffic =
          Lcmm.Traffic.of_allocation base.F.metric
            ~on_chip:tile.Lcmm.Policies.on_chip
        in
        let umm_traffic = Lcmm.Traffic.umm base.F.metric in
        let lcmm_ddr = Lcmm.Traffic.total_bytes fz.Fz.base_traffic in
        let fusion_ddr = Lcmm.Traffic.total_bytes fz.Fz.traffic in
        Printf.printf
          "%-12s LCMM %.3f ms / %d B  ->  +fusion %.3f \
           ms / %d B (%d seg, %d streamed)\n\
           %!"
          model
          (base.F.predicted_latency *. 1e3)
          lcmm_ddr
          (fz.Fz.predicted_latency *. 1e3)
          fusion_ddr
          (List.length fz.Fz.segments)
          (List.length fz.Fz.streamed);
        let row =
          Json.Obj
            [ ("model", Json.String model);
              ( "umm",
                Json.Obj
                  [ ( "latency_ms",
                      Json.Float
                        (c.F.umm.F.latency_seconds *. 1e3) );
                    ( "ddr_bytes",
                      Json.Int (Lcmm.Traffic.total_bytes umm_traffic) )
                  ] );
              ( "lcmm",
                Json.Obj
                  [ ( "latency_ms",
                      Json.Float (base.F.predicted_latency *. 1e3) );
                    ("ddr_bytes", Json.Int lcmm_ddr);
                    ("sram_bytes", Json.Int base.F.tensor_sram_bytes) ]
              );
              ( "lcmm_fusion",
                Json.Obj
                  [ ( "latency_ms",
                      Json.Float (fz.Fz.predicted_latency *. 1e3) );
                    ("ddr_bytes", Json.Int fusion_ddr);
                    ("ddr_bytes_saved", Json.Int (Fz.ddr_bytes_saved fz));
                    ("segments", Json.Int (List.length fz.Fz.segments));
                    ("fused_nodes", Json.Int (Fz.fused_nodes fz));
                    ( "streamed_weights",
                      Json.Int (List.length fz.Fz.streamed) );
                    ("fifo_bytes", Json.Int fz.Fz.fifo_bytes);
                    ( "peak_sram_bytes",
                      Json.Int fz.Fz.plan.F.tensor_sram_bytes )
                  ] );
              ( "stream_tile",
                Json.Obj
                  [ ( "latency_ms",
                      Json.Float (tile.Lcmm.Policies.latency *. 1e3) );
                    ( "ddr_bytes",
                      Json.Int (Lcmm.Traffic.total_bytes tile_traffic) );
                    ( "feasible",
                      Json.Bool tile.Lcmm.Policies.feasible ) ] ) ]
        in
        ( row :: rows,
          (if fusion_ddr < lcmm_ddr then wins + 1 else wins),
          saved + Fz.ddr_bytes_saved fz ))
      ([], 0, 0) Models.Zoo.all
  in
  Printf.printf "fusion wins DDR on %d/%d models, %d bytes saved\n" wins
    (List.length Models.Zoo.all)
    saved;
  Json.Obj
    [ ("experiment", Json.String "fusion");
      ("dtype", Json.String (Tensor.Dtype.to_string dtype));
      ("models", Json.List (List.rev rows));
      ( "summary",
        Json.Obj
          [ ("fusion_ddr_wins", Json.Int wins);
            ("models_total", Json.Int (List.length Models.Zoo.all));
            ("total_ddr_bytes_saved", Json.Int saved) ] ) ]

(* ------------------------------------------------------------------ *)

(* An experiment prints its table; a [Document] one also returns the
   JSON report that `--json` writes. *)
type experiment = Table of (unit -> unit) | Document of (unit -> Json.t)

let experiments =
  [ ("fig2a", Table fig2a); ("table1", Document table1);
    ("table2", Table table2); ("table3", Table table3); ("fig8", Table fig8);
    ("fig2b", Table fig2b); ("ablation", Table ablation);
    ("energy", Table energy); ("sensitivity", Table sensitivity);
    ("schedule", Table schedule_experiment); ("zoo", Table zoo);
    ("runtime", Document runtime_experiment);
    ("faults", Document faults_experiment); ("perf", Document perf_experiment);
    ("serve", Document serve); ("chaos", Document chaos);
    ("fusion", Document fusion) ]

(* Run [names] (every experiment when empty) in order.  All argument
   errors are reported before anything runs: an unknown name, and a
   [json] path unless exactly one documented experiment is named. *)
let run ~json names =
  let find name =
    match List.assoc_opt name experiments with
    | Some e -> e
    | None ->
      or_die
        (Error
           (Printf.sprintf "unknown experiment %s (known: %s)" name
              (String.concat " " (List.map fst experiments))))
  in
  let names = if names = [] then List.map fst experiments else names in
  let chosen = List.map find names in
  match (json, names, chosen) with
  | None, _, _ ->
    List.iter
      (function Table f -> f () | Document f -> ignore (f ()))
      chosen
  | Some path, [ _ ], [ Document f ] ->
    write_json path (f ());
    Printf.printf "wrote %s\n" path
  | Some _, [ name ], _ ->
    or_die (Error (Printf.sprintf "--json: %s has no JSON document" name))
  | Some _, _, _ -> or_die (Error "--json takes exactly one experiment")
