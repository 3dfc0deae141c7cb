module G = Dnn_graph.Graph
module Latency = Accel.Latency
module Config = Accel.Config

let log_src = Logs.Src.create "lcmm.framework" ~doc:"LCMM framework passes"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  feature_reuse : bool;
  weight_prefetch : bool;
  buffer_splitting : bool;
  buffer_sharing : bool;
  memory_bound_only : bool;
  compensation : Dnnk.compensation;
  coloring : Coloring.strategy;
  capacity_override : int option;
  weight_slices : int;
  fusion : bool;
  channels : int;
}

let default_options =
  { feature_reuse = true;
    weight_prefetch = true;
    buffer_splitting = true;
    buffer_sharing = true;
    memory_bound_only = true;
    compensation = Dnnk.Table_approx;
    coloring = Coloring.Min_growth;
    capacity_override = None;
    weight_slices = 1;
    fusion = false;
    channels = 1 }

type pass_times = {
  profile_us : float;
  liveness_us : float;
  interference_us : float;
  coloring_us : float;
  prefetch_us : float;
  dnnk_us : float;
  splitting_us : float;
  segmentation_us : float;
  channel_assign_us : float;
}

let zero_pass_times =
  { profile_us = 0.;
    liveness_us = 0.;
    interference_us = 0.;
    coloring_us = 0.;
    prefetch_us = 0.;
    dnnk_us = 0.;
    splitting_us = 0.;
    segmentation_us = 0.;
    channel_assign_us = 0. }

let combine_pass_times op a b =
  { profile_us = op a.profile_us b.profile_us;
    liveness_us = op a.liveness_us b.liveness_us;
    interference_us = op a.interference_us b.interference_us;
    coloring_us = op a.coloring_us b.coloring_us;
    prefetch_us = op a.prefetch_us b.prefetch_us;
    dnnk_us = op a.dnnk_us b.dnnk_us;
    splitting_us = op a.splitting_us b.splitting_us;
    segmentation_us = op a.segmentation_us b.segmentation_us;
    channel_assign_us = op a.channel_assign_us b.channel_assign_us }

let add_pass_times = combine_pass_times ( +. )
let sub_pass_times = combine_pass_times ( -. )

let pass_times_assoc t =
  [ ("profile_us", t.profile_us);
    ("liveness_us", t.liveness_us);
    ("interference_us", t.interference_us);
    ("coloring_us", t.coloring_us);
    ("prefetch_us", t.prefetch_us);
    ("dnnk_us", t.dnnk_us);
    ("splitting_us", t.splitting_us);
    ("segmentation_us", t.segmentation_us);
    ("channel_assign_us", t.channel_assign_us) ]

let timed cell f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  cell := !cell +. ((Unix.gettimeofday () -. t0) *. 1e6);
  result

type plan = {
  config : Config.t;
  options : options;
  metric : Metric.t;
  vbufs : Vbuffer.t list;
  allocation : Dnnk.result;
  prefetch : Prefetch.t option;
  splitting_iterations : int;
  predicted_latency : float;
  pol : float;
  tensor_sram_bytes : int;
  channel_assignment : Channels.assignment option;
  pass_times : pass_times;
}

let is_weight_item = function
  | Metric.Weight_of _ | Metric.Weight_slice _ -> true
  | Metric.Feature_value _ -> false

(* Features and weights live in separate buffer pools and must never
   share a virtual buffer.  Expressed as a partition (rather than a
   pairwise predicate) so the interference build can fold it in with
   whole-row mask unions instead of a quadratic predicate sweep. *)
let never_share_class item = if is_weight_item item then 1 else 0

let unhidden_stalls prefetch on_chip =
  match prefetch with
  | None -> 0.
  | Some pdg ->
    Metric.Item_set.fold
      (fun item acc ->
        match item with
        | Metric.Weight_of n -> acc +. Prefetch.stall_seconds pdg n
        | Metric.Weight_slice { node; of_k; _ } ->
          (* A slice loads 1/k of the tensor; its share of the unhidden
             stall scales the same way. *)
          acc +. (Prefetch.stall_seconds pdg node /. float_of_int of_k)
        | Metric.Feature_value _ -> acc)
      on_chip 0.

let helped_and_bound metric on_chip =
  let profiles = metric.Metric.profiles in
  let on = Metric.mark (Metric.item_count metric) in
  Metric.mark_set metric on on_chip;
  let helped = ref 0 and bound = ref 0 in
  Array.iter
    (fun p ->
      if Latency.is_memory_bound p then begin
        incr bound;
        let id = p.Latency.node_id in
        let now = Metric.node_latency_on metric on id in
        if now < Latency.umm_node_latency p -. 1e-12 then incr helped
      end)
    profiles;
  (!helped, !bound)

(* The planner runs in three stages so a caller that replans one model
   at several SRAM grants or stall scales (the multi-tenant runtime)
   repeats only the stages whose inputs changed.  [plan] is their
   composition.  [prepare] also runs the capacity-free head of passes
   1-3: the interference index, the coloring under its options and the
   DNNK compile, so an allocation at a new capacity only solves the
   knapsack and splits. *)
type prepared = {
  pr_config : Config.t;
  pr_options : options;
  pr_metric : Metric.t;
  pr_items : Metric.item array;
  pr_sizes : int array;
  pr_lifespans : Interference.lifespans;
  pr_pdg : Prefetch.t option;
  pr_vbufs : Vbuffer.t list;
  pr_compiled : Dnnk.compiled;
  pr_times : pass_times;
}

type allocated = {
  al_prepared : prepared;
  al_options : options;
  al_vbufs : Vbuffer.t list;
  al_allocation : Dnnk.result;
  al_splitting_iterations : int;
  al_times : pass_times;
}

(* The virtual buffers the options' sharing and coloring make of the
   items, and their DNNK compile, each pass timed into its cell.  Only
   sharing builds a graph, and it is dropped once colored. *)
let colored ~interference_us ~coloring_us ~dnnk_us options metric ls items sizes =
  let vbufs =
    if options.buffer_sharing then
      let interference =
        timed interference_us (fun () -> Interference.of_lifespans ls)
      in
      timed coloring_us (fun () ->
          Coloring.color ~strategy:options.coloring interference ~sizes)
    else
      timed coloring_us (fun () ->
          Array.to_list
            (Array.mapi
               (fun i item ->
                 Vbuffer.singleton ~vbuf_id:i item ~size_bytes:sizes.(i))
               items))
  in
  (vbufs, timed dnnk_us (fun () -> Dnnk.compile metric vbufs))

let prepare ?(options = default_options) config table g =
  Log.info (fun m ->
      m "plan: %d nodes, %s, device %s" (G.node_count g)
        (Tensor.Dtype.to_string config.Config.dtype)
        config.Config.device.Fpga.Device.device_name);
  let profile_us = ref 0. and liveness_us = ref 0. and prefetch_us = ref 0. in
  let interference_us = ref 0. and coloring_us = ref 0. and dnnk_us = ref 0. in
  let profiles, metric =
    timed profile_us (fun () ->
        let profiles = Latency.profiles config table in
        (* Slices below the allocation block size only waste rounding; cap
           the per-node slice count so every slice spans at least one
           block. *)
        let weight_slices n =
          max 1
            (min options.weight_slices
               (profiles.(n).Latency.wt_once_bytes / Dnnk.block_bytes))
        in
        (profiles, Metric.build ~weight_slices g profiles))
  in
  let eligible =
    Metric.eligible_items metric ~memory_bound_only:options.memory_bound_only
    |> List.filter (fun item ->
           if is_weight_item item then options.weight_prefetch
           else options.feature_reuse)
  in
  let items = Array.of_list eligible in
  let dtype = config.Config.dtype in
  let sizes = Array.map (Metric.item_size_bytes dtype metric) items in
  (* Weight prefetching pass: PDG over the weight-eligible nodes, using
     the UMM per-node latencies as the schedule-time estimate. *)
  let weight_targets =
    Array.to_list items
    |> List.filter_map (function
         | Metric.Weight_of n | Metric.Weight_slice { node = n; _ } -> Some n
         | Metric.Feature_value _ -> None)
    |> List.sort_uniq compare
  in
  let pdg =
    if weight_targets = [] then None
    else
      timed prefetch_us (fun () ->
          Some
            (Prefetch.build metric ~targets:weight_targets
               ~node_latency:(fun id -> Latency.umm_node_latency profiles.(id))))
  in
  let prefetch_source n =
    match pdg with None -> None | Some p -> Prefetch.source_of p n
  in
  let intervals =
    timed liveness_us (fun () ->
        Array.init (Array.length items) (fun i ->
            Liveness.metric_interval metric ~prefetch_source items.(i)))
  in
  Log.info (fun m ->
      m "passes 1+2 (liveness, prefetch): %d eligible items, %d prefetch targets"
        (Array.length items)
        (List.length weight_targets));
  let lifespans =
    timed interference_us (fun () ->
        Interference.lifespans ~never_share_class ~items ~intervals ())
  in
  let vbufs, compiled =
    colored ~interference_us ~coloring_us ~dnnk_us options metric lifespans
      items sizes
  in
  { pr_config = config;
    pr_options = options;
    pr_metric = metric;
    pr_items = items;
    pr_sizes = sizes;
    pr_lifespans = lifespans;
    pr_pdg = pdg;
    pr_vbufs = vbufs;
    pr_compiled = compiled;
    pr_times =
      { zero_pass_times with
        profile_us = !profile_us;
        liveness_us = !liveness_us;
        interference_us = !interference_us;
        coloring_us = !coloring_us;
        prefetch_us = !prefetch_us;
        dnnk_us = !dnnk_us } }

let prepared_times pr = pr.pr_times

let prepare_options o =
  { default_options with
    feature_reuse = o.feature_reuse;
    weight_prefetch = o.weight_prefetch;
    memory_bound_only = o.memory_bound_only;
    weight_slices = o.weight_slices }

let allocate ?capacity_bytes ?options pr =
  let options =
    match options with
    | None -> pr.pr_options
    | Some o ->
      if prepare_options o <> prepare_options pr.pr_options then
        invalid_arg
          "Framework.allocate: options differ from the prepared stage's in a \
           field prepare reads";
      o
  in
  let options =
    match capacity_bytes with
    | None -> options
    | Some cap ->
      if cap < 0 then invalid_arg "Framework.allocate: negative capacity";
      { options with capacity_override = Some cap }
  in
  let metric = pr.pr_metric and sizes = pr.pr_sizes in
  let interference_us = ref 0. and coloring_us = ref 0. in
  let dnnk_us = ref 0. and splitting_us = ref 0. in
  (* The stage's buffers when they were colored the way these options
     color; otherwise this allocation makes its own, the same way. *)
  let vbufs, compiled =
    if
      options.buffer_sharing = pr.pr_options.buffer_sharing
      && options.coloring = pr.pr_options.coloring
    then (pr.pr_vbufs, pr.pr_compiled)
    else
      colored ~interference_us ~coloring_us ~dnnk_us options metric
        pr.pr_lifespans pr.pr_items sizes
  in
  let capacity_bytes =
    let budget = Config.sram_budget_bytes pr.pr_config in
    match options.capacity_override with
    | None -> budget
    | Some cap -> min cap budget
  in
  Log.info (fun m ->
      m "pass 3 (DNNK): %d virtual buffers, capacity %.2f MB"
        (List.length vbufs)
        (float_of_int capacity_bytes /. 1e6));
  let workspace = Dnnk.workspace () in
  let initial =
    timed dnnk_us (fun () ->
        Dnnk.solve ~compensation:options.compensation ~workspace compiled
          ~capacity_bytes)
  in
  let allocation, splitting_iterations, vbufs =
    if options.buffer_splitting && options.buffer_sharing then begin
      let interference =
        timed interference_us (fun () ->
            Interference.of_lifespans pr.pr_lifespans)
      in
      let outcome =
        timed splitting_us (fun () ->
            Splitting.run ~compensation:options.compensation
              ~strategy:options.coloring ~workspace metric interference ~sizes
              ~capacity_bytes initial)
      in
      let result = outcome.Splitting.result in
      ( result,
        outcome.Splitting.iterations,
        result.Dnnk.chosen @ result.Dnnk.spilled )
    end
    else (initial, 0, vbufs)
  in
  { al_prepared = pr;
    al_options = options;
    al_vbufs = vbufs;
    al_allocation = allocation;
    al_splitting_iterations = splitting_iterations;
    al_times =
      add_pass_times pr.pr_times
        { zero_pass_times with
          interference_us = !interference_us;
          coloring_us = !coloring_us;
          dnnk_us = !dnnk_us;
          splitting_us = !splitting_us } }

let finish ?(stall_scale = 1.) al =
  let pr = al.al_prepared and options = al.al_options in
  let metric = pr.pr_metric and pdg = pr.pr_pdg in
  let splitting_iterations = al.al_splitting_iterations in
  (* DNNK values weight pinning by its Eq. 1 reduction, but a pinned
     weight whose PDG source leaves too little headroom also costs its
     unhidden stall.  Prune chosen buffers whose stalls outweigh their
     benefit (whole buffers, keeping the sharing groups atomic).

     [stall_scale] is the plan↔schedule co-iteration's feedback: the
     runtime's schedule optimizer observes how much DDR contention
     inflates this tenant's transfers and replans with stalls scaled
     up accordingly, so marginally-hidden prefetches that contention
     exposes get pruned.  Multiplying by the default 1.0 is skipped
     outright so the standalone planning path stays bit-identical. *)
  let scaled s = if stall_scale = 1. then s else s *. stall_scale in
  let vbuf_stall vb =
    match pdg with
    | None -> 0.
    | Some p ->
      List.fold_left
        (fun acc item ->
          match item with
          | Metric.Weight_of n -> acc +. Prefetch.stall_seconds p n
          | Metric.Weight_slice { node; of_k; _ } ->
            acc +. (Prefetch.stall_seconds p node /. float_of_int of_k)
          | Metric.Feature_value _ -> acc)
        0. vb.Vbuffer.members
  in
  let pick (allocation : Dnnk.result) ~benefit =
    let candidates =
      List.filter_map
        (fun vb ->
          let stall = scaled (vbuf_stall vb) in
          if stall <= 0. then None
          else
            let benefit = benefit vb in
            if stall > benefit +. 1e-15 then Some (stall -. benefit, vb)
            else None)
        allocation.Dnnk.chosen
    in
    match candidates with
    | [] -> None
    | first :: rest ->
      let _, worst =
        List.fold_left
          (fun ((bn, _) as best) ((n, _) as cand) -> if n > bn then cand else best)
          first rest
      in
      Some worst
  in
  let allocation, _ = Dnnk.drop_while metric ~pick al.al_allocation in
  (* Safety net: a plan must never lose to its own baseline.  Greedy
     pruning can in principle strand a jointly-bad group (gains are
     superadditive), so fall back to the empty allocation if the stall
     accounting still leaves the plan behind UMM. *)
  let allocation =
    let total =
      allocation.Dnnk.predicted_latency
      +. scaled (unhidden_stalls pdg allocation.Dnnk.on_chip)
    in
    if total > Latency.umm_total metric.Metric.profiles +. 1e-15 then
      { allocation with
        Dnnk.chosen = [];
        spilled = allocation.Dnnk.chosen @ allocation.Dnnk.spilled;
        on_chip = Metric.Item_set.empty;
        predicted_latency = Latency.umm_total metric.Metric.profiles;
        used_blocks = 0 }
    else allocation
  in
  let stalls = unhidden_stalls pdg allocation.Dnnk.on_chip in
  let helped, bound = helped_and_bound metric allocation.Dnnk.on_chip in
  Log.info (fun m ->
      m
        "plan done: %d buffers pinned (%d spilled), %d splitting iterations, \
         %.3f ms predicted, POL %d/%d"
        (List.length allocation.Dnnk.chosen)
        (List.length allocation.Dnnk.spilled)
        splitting_iterations
        ((allocation.Dnnk.predicted_latency +. stalls) *. 1e3)
        helped bound);
  (* Channel assignment (skipped entirely at 1 channel, where every
     stream trivially lands on channel 0 and the plan must stay
     byte-identical to the pre-channel planner). *)
  let channel_assign_us = ref 0. in
  let channel_assignment =
    if options.channels <= 1 then None
    else
      timed channel_assign_us (fun () ->
          Some
            (Channels.assign ~channels:options.channels metric
               ~on_chip:allocation.Dnnk.on_chip))
  in
  { config = pr.pr_config;
    options;
    metric;
    vbufs = al.al_vbufs;
    allocation;
    prefetch = pdg;
    splitting_iterations;
    predicted_latency = allocation.Dnnk.predicted_latency +. stalls;
    pol = (if bound = 0 then 1. else float_of_int helped /. float_of_int bound);
    tensor_sram_bytes = allocation.Dnnk.used_blocks * Dnnk.block_bytes;
    channel_assignment;
    pass_times = { al.al_times with channel_assign_us = !channel_assign_us } }

(* [prepare] on a table compiled here, its build timed with the profile. *)
let prepare_graph ?options ({ Config.dtype; fused_eltwise; _ } as config) g =
  let us = ref 0. in
  let table = timed us (fun () -> Latency.table dtype ~fused_eltwise g) in
  let pr = prepare ?options config table g in
  let times = pr.pr_times in
  { pr with pr_times = { times with profile_us = !us +. times.profile_us } }

let plan ?options config g = finish (allocate (prepare_graph ?options config g))

let plan_partitioned ?options ~capacity_bytes config g =
  finish (allocate ~capacity_bytes (prepare_graph ?options config g))

(* Degraded-mode replanning for a board whose SRAM shrank under a live
   plan (bank loss).  Two steps, mirroring the paper's spill reasoning
   at runtime instead of compile time: first evict pinned virtual
   buffers by reverse benefit-density until the surviving capacity is
   respected (the emergency spill — what gets dumped to DDR right now),
   then re-solve the whole pipeline against the surviving capacity (the
   steady-state plan resumed from the current node). *)
type degraded = {
  evicted : Vbuffer.t list;
  evicted_bytes : int;
  post_eviction : Dnnk.result;
  replanned : plan;
}

let degrade ~surviving_bytes p g =
  if surviving_bytes < 0 then invalid_arg "Framework.degrade: negative capacity";
  let post_eviction, evicted =
    Dnnk.evict_to_capacity p.metric ~capacity_bytes:surviving_bytes p.allocation
  in
  let evicted_bytes =
    List.fold_left (fun acc vb -> acc + vb.Vbuffer.size_bytes) 0 evicted
  in
  Log.info (fun m ->
      m "degrade: capacity %.2f MB, evicted %d buffers (%.2f MB), replanning"
        (float_of_int surviving_bytes /. 1e6)
        (List.length evicted)
        (float_of_int evicted_bytes /. 1e6));
  let replanned =
    plan_partitioned ~options:p.options ~capacity_bytes:surviving_bytes
      p.config g
  in
  { evicted; evicted_bytes; post_eviction; replanned }

(* Canonical byte string of everything decision-relevant in a plan —
   buffers, membership, allocation, prefetch edges, objectives — with
   floats at full precision ([%.17g] round-trips every double) and
   wall-clock pass times deliberately excluded.  Two plans fingerprint
   equal iff the planner made identical decisions and identical float
   computations; the plan-gen and staged-plan goldens digest this. *)
let fingerprint p =
  let b = Buffer.create 1024 in
  let f x = Buffer.add_string b (Printf.sprintf "%.17g;" x) in
  let i x = Buffer.add_string b (string_of_int x ^ ";") in
  let item it = Buffer.add_string b (Format.asprintf "%a," Metric.pp_item it) in
  let vbuf vb =
    i vb.Vbuffer.vbuf_id;
    i vb.Vbuffer.size_bytes;
    List.iter item vb.Vbuffer.members;
    Buffer.add_char b '|'
  in
  Buffer.add_string b "vbufs:";
  List.iter vbuf p.vbufs;
  Buffer.add_string b "chosen:";
  List.iter vbuf p.allocation.Dnnk.chosen;
  Buffer.add_string b "spilled:";
  List.iter vbuf p.allocation.Dnnk.spilled;
  Buffer.add_string b "alloc:";
  f p.allocation.Dnnk.predicted_latency;
  i p.allocation.Dnnk.capacity_blocks;
  i p.allocation.Dnnk.used_blocks;
  Buffer.add_string b "prefetch:";
  (match p.prefetch with
  | None -> Buffer.add_string b "none"
  | Some pdg ->
    List.iter
      (fun (e : Prefetch.edge) ->
        i e.Prefetch.source;
        i e.Prefetch.target;
        f e.Prefetch.load_seconds;
        f e.Prefetch.stall_seconds)
      (Prefetch.edges pdg));
  Buffer.add_string b ";plan:";
  i p.splitting_iterations;
  f p.predicted_latency;
  f p.pol;
  i p.tensor_sram_bytes;
  (* Appended only when present, so 1-channel plans fingerprint exactly
     as they did before channel assignment existed. *)
  (match p.channel_assignment with
  | None -> ()
  | Some a ->
    Buffer.add_string b ";channels:";
    i a.Channels.channels;
    Array.iter i a.Channels.wt_load_channel;
    Array.iter i a.Channels.wt_stream_channel;
    Array.iter i a.Channels.if_channel;
    Array.iter i a.Channels.of_channel;
    Array.iter f a.Channels.channel_bytes);
  Buffer.contents b

let latency p = p.predicted_latency

let helped_layers p = helped_and_bound p.metric p.allocation.Dnnk.on_chip

type design_report = {
  style_name : string;
  freq_mhz : float;
  latency_seconds : float;
  tops : float;
  dsp_util : float;
  clb_util : float;
  sram_util : float;
  bram_util : float;
  uram_util : float;
}

(* Map a design's memory onto physical blocks: tile buffers take BRAM
   first (they are many small banks), tensor buffers take URAM first
   (they are large contiguous buffers), each overflowing into the other. *)
let memory_blocks device ~tile_bytes ~tensor_bytes =
  let total = device.Fpga.Device.total in
  let bram_cap = total.Fpga.Resource.bram36 in
  let uram_cap = total.Fpga.Resource.uram in
  let tile_bram = (tile_bytes + Fpga.Resource.bram36_bytes - 1) / Fpga.Resource.bram36_bytes in
  let tile_bram = min tile_bram bram_cap in
  let tile_overflow_bytes = max 0 (tile_bytes - (tile_bram * Fpga.Resource.bram36_bytes)) in
  let tensor_uram =
    (tensor_bytes + Fpga.Resource.uram_bytes - 1) / Fpga.Resource.uram_bytes
    + (tile_overflow_bytes + Fpga.Resource.uram_bytes - 1) / Fpga.Resource.uram_bytes
  in
  let tensor_uram_clamped = min tensor_uram uram_cap in
  let overflow_bytes = (tensor_uram - tensor_uram_clamped) * Fpga.Resource.uram_bytes in
  let extra_bram = (overflow_bytes + Fpga.Resource.bram36_bytes - 1) / Fpga.Resource.bram36_bytes in
  (min bram_cap (tile_bram + extra_bram), tensor_uram_clamped)

let report ~style_name device config g ~latency_seconds ~tensor_bytes ~buffer_count =
  let total = device.Fpga.Device.total in
  let compute = Config.compute_resources config in
  let tile_bytes = Accel.Tiling.buffer_bytes config.Config.dtype config.Config.tile in
  let bram_used, uram_used = memory_blocks device ~tile_bytes ~tensor_bytes in
  let luts = compute.Fpga.Resource.luts + (2_000 * buffer_count) in
  let fr used cap = if cap = 0 then 0. else float_of_int used /. float_of_int cap in
  let sram_used_bytes =
    (bram_used * Fpga.Resource.bram36_bytes) + (uram_used * Fpga.Resource.uram_bytes)
  in
  { style_name;
    freq_mhz = config.Config.freq_mhz;
    latency_seconds;
    tops = 2. *. float_of_int (G.total_macs g) /. latency_seconds /. 1e12;
    dsp_util = fr compute.Fpga.Resource.dsp total.Fpga.Resource.dsp;
    clb_util = fr luts total.Fpga.Resource.luts;
    sram_util = fr sram_used_bytes (Fpga.Device.sram_bytes device);
    bram_util = fr bram_used total.Fpga.Resource.bram36;
    uram_util = fr uram_used total.Fpga.Resource.uram }

let report_of_plan ~style_name g p =
  report ~style_name p.config.Config.device p.config g
    ~latency_seconds:p.predicted_latency ~tensor_bytes:p.tensor_sram_bytes
    ~buffer_count:(List.length p.allocation.Dnnk.chosen)

type comparison = {
  model : string;
  dtype : Tensor.Dtype.t;
  umm : design_report;
  lcmm : design_report;
  lcmm_plan : plan;
  speedup : float;
}

type designs = { umm_report : design_report; lcmm_config : Config.t }

let designs_of_dse g { Accel.Dse.umm; lcmm } =
  let config = umm.Accel.Dse.config in
  { umm_report =
      report ~style_name:"UMM" config.Config.device config g
        ~latency_seconds:umm.Accel.Dse.umm_latency ~tensor_bytes:0
        ~buffer_count:0;
    lcmm_config = lcmm.Accel.Dse.config }

let compare_staged ?options ~model designs g pr =
  let lcmm_plan = finish (allocate ?options pr) in
  let umm = designs.umm_report in
  let lcmm = report_of_plan ~style_name:"LCMM" g lcmm_plan in
  { model;
    dtype = pr.pr_config.Config.dtype;
    umm;
    lcmm;
    lcmm_plan;
    speedup = umm.latency_seconds /. lcmm.latency_seconds }

let compare_designs ?options ?(device = Fpga.Device.vu9p) ~model dtype g =
  let dse = Accel.Dse.run_both ~device dtype g in
  let { Accel.Dse.config; table; _ } = dse.Accel.Dse.lcmm in
  compare_staged ?options ~model (designs_of_dse g dse) g
    (prepare ?options config table g)
