module F = Lcmm.Framework
module Metric = Lcmm.Metric
module Dnnk = Lcmm.Dnnk
module Traffic = Lcmm.Traffic
module Latency = Accel.Latency
module Config = Accel.Config

let log_src = Logs.Src.create "lcmm.fusion" ~doc:"Fused segments and streaming"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Longest fuse group the segmentation search considers. *)
let max_segment = 8

(* Streaming FIFO footprint in {!Dnnk.block_bytes} blocks (128 KiB),
   charged once when any weight streams. *)
let fifo_blocks = 4

type t = {
  base : F.plan;
  plan : F.plan;
  segments : Segmentation.segment list;
  streamed : int list;
  fifo_bytes : int;
  predicted_latency : float;
  traffic : Traffic.t;
  base_traffic : Traffic.t;
}

let ddr_bytes_saved t =
  Traffic.total_bytes t.base_traffic - Traffic.total_bytes t.traffic

let fused_nodes t =
  List.fold_left
    (fun a (s : Segmentation.segment) ->
      a + s.Segmentation.last - s.Segmentation.first + 1)
    0 t.segments

let apply (base : F.plan) =
  let t0 = Unix.gettimeofday () in
  let on_chip = base.F.allocation.Dnnk.on_chip in
  let base_traffic = Traffic.of_allocation base.F.metric ~on_chip in
  let metric = base.F.metric in
  let profiles = metric.Metric.profiles in
  let n = Array.length profiles in
  let capacity_bytes =
    let budget = Config.sram_budget_bytes base.F.config in
    match base.F.options.F.capacity_override with
    | None -> budget
    | Some cap -> min cap budget
  in
  let used = base.F.tensor_sram_bytes in
  (* --- stream residency ------------------------------------------------
     A spilled whole weight with tile reloads ([wt_term > wt_load_once])
     streams: its channel occupancy and DDR bytes drop to one load per
     inference.  Streaming one weight never slows any node and never
     displaces a pinned tensor — the only charge is the shared FIFO,
     paid once — so every candidate streams, provided the FIFO fits
     beside the plan's resident tensors. *)
  let is_streamed = Array.make n false in
  let streamed, fifo_bytes =
    let cands = ref [] in
    for i = n - 1 downto 0 do
      let p = profiles.(i) in
      if
        metric.Metric.slices.(i) = 1
        && p.Latency.wt_term > 0.
        && p.Latency.wt_load_once < p.Latency.wt_term
        && not (Metric.Item_set.mem (Metric.Weight_of i) on_chip)
      then cands := i :: !cands
    done;
    let fifo = fifo_blocks * Dnnk.block_bytes in
    if !cands = [] || used + fifo > capacity_bytes then ([], 0)
    else begin
      List.iter (fun i -> is_streamed.(i) <- true) !cands;
      (!cands, fifo)
    end
  in
  (* --- segmentation ---------------------------------------------------
     Searched against the streamed metric (stream decisions change the
     weight terms the segment pricing maximizes over) and the SRAM
     headroom left after the resident tensors and the FIFO. *)
  let streamed_metric =
    if streamed = [] then metric
    else Sim.Fused.effective_metric ~streamed:(fun i -> is_streamed.(i)) metric
  in
  let seg =
    Segmentation.search ~max_segment
      ~headroom_bytes:(capacity_bytes - used - fifo_bytes)
      ~tile_th:base.F.config.Config.tile.Accel.Tiling.th
      ~dtype:base.F.config.Config.dtype streamed_metric ~on_chip
  in
  let segments = seg.Segmentation.segments in
  (* --- exact re-evaluation -------------------------------------------- *)
  let scale = Array.make n 1.0 in
  List.iter
    (fun (s : Segmentation.segment) ->
      List.iter (fun (m, f) -> scale.(m) <- f) s.Segmentation.scales)
    segments;
  let decided = segments <> [] || streamed <> [] in
  let eff_metric =
    if not decided then metric
    else
      Sim.Fused.effective_metric
        ~latc_scale:(fun i -> scale.(i))
        ~streamed:(fun i -> is_streamed.(i))
        metric
  in
  let eff_on_chip =
    List.fold_left
      (fun acc (s : Segmentation.segment) ->
        List.fold_left
          (fun acc v -> Metric.Item_set.add (Metric.Feature_value v) acc)
          acc s.Segmentation.internal)
      on_chip segments
  in
  let stalls =
    base.F.predicted_latency -. base.F.allocation.Dnnk.predicted_latency
  in
  let fused_latency =
    Metric.total_latency eff_metric ~on_chip:eff_on_chip +. stalls
  in
  let segmentation_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  (* The base plan charged with the pass's wall clock: the effective
     plan whenever the pass decides nothing. *)
  let timed =
    { base with F.pass_times = { base.F.pass_times with F.segmentation_us } }
  in
  (* Safety net: the segment pricing and the effective-metric
     evaluation are the same arithmetic, so this cannot fire unless
     the two ever drift — in which case no decision beats a wrong
     one. *)
  if fused_latency > base.F.predicted_latency +. 1e-15 then
    { base;
      plan = timed;
      segments = [];
      streamed = [];
      fifo_bytes = 0;
      predicted_latency = base.F.predicted_latency;
      traffic = base_traffic;
      base_traffic }
  else begin
    let traffic = Traffic.of_allocation eff_metric ~on_chip:eff_on_chip in
    let widest =
      List.fold_left
        (fun a (s : Segmentation.segment) -> max a s.Segmentation.slab_bytes)
        0 segments
    in
    Log.info (fun m ->
        m
          "fusion: %d segments (%d candidates), %d streamed weights, \
           %.3f -> %.3f ms, %.2f MB DDR saved"
          (List.length segments) seg.Segmentation.evaluated
          (List.length streamed)
          (base.F.predicted_latency *. 1e3)
          (fused_latency *. 1e3)
          (float_of_int
             (Traffic.total_bytes base_traffic - Traffic.total_bytes traffic)
          /. 1e6));
    let plan =
      if not decided then timed
      else
        { timed with
          F.metric = eff_metric;
          allocation =
            { base.F.allocation with
              Dnnk.on_chip = eff_on_chip;
              predicted_latency =
                Metric.total_latency eff_metric ~on_chip:eff_on_chip };
          predicted_latency = fused_latency;
          tensor_sram_bytes = used + fifo_bytes + widest }
    in
    { base;
      plan;
      segments;
      streamed;
      fifo_bytes;
      predicted_latency = fused_latency;
      traffic;
      base_traffic }
  end

let effective_plan t = t.plan

let post (base : F.plan) =
  if not base.F.options.F.fusion then (base, None)
  else
    let t = apply base in
    (t.plan, Some t)
