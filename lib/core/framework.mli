(** The LCMM framework driver (paper Fig. 4).

    Runs the four passes in order on a design point: feature buffer reuse
    (liveness + coloring), weight buffer prefetching (PDG + coloring),
    DNNK allocation and buffer splitting; produces an allocation *plan*
    with the latency/resource accounting the paper's tables report. *)

type options = {
  feature_reuse : bool;      (** Consider feature tensors (section 3.1). *)
  weight_prefetch : bool;    (** Consider weight tensors (section 3.2). *)
  buffer_splitting : bool;   (** Run the splitting pass (section 3.4). *)
  buffer_sharing : bool;     (** Share buffers across disjoint lifespans;
                                 off = one buffer per tensor (ablation). *)
  memory_bound_only : bool;  (** Restrict items to memory-bound layers. *)
  compensation : Dnnk.compensation;
  coloring : Coloring.strategy;
  capacity_override : int option;
      (** Cap the tensor-buffer SRAM budget in bytes (embedded targets,
          sensitivity studies); [None] uses the design's full budget. *)
  weight_slices : int;
      (** Partial weight pinning granularity: split every weight tensor
          into this many channel-group slices, each an independent
          allocation item (1 = the paper's whole-tensor granularity). *)
  fusion : bool;
      (** Run the fused-layer / weight-streaming post-pass.  Read only by
          [Lcmm_fusion.Fusion.post], the gate every planner caller goes
          through; the planner's own passes ignore it, so a plan is
          byte-identical with the flag in either state.  Carried on the
          plan so services, caches and fingerprints distinguish the two
          pipelines. *)
  channels : int;
      (** DDR channels to assign transfers over ({!Channels.assign}
          runs as a post-allocation pass when > 1).  1 — the default —
          skips the pass entirely: the plan, and its fingerprint, are
          byte-identical to the pre-channel planner. *)
}

val default_options : options
(** Everything on, [Table_approx] compensation, [Min_growth] coloring —
    the paper's configuration. *)

type pass_times = {
  profile_us : float;
      (** The Eq. 1 profile and the metric tables built on it
          ({!Accel.Latency.profiles} and {!Metric.build}), the base every
          pass reads; for {!plan} and {!plan_partitioned}, the
          {!Accel.Latency.table} they compile too. *)
  liveness_us : float;
  interference_us : float;
  coloring_us : float;
  prefetch_us : float;
  dnnk_us : float;
  splitting_us : float;
  segmentation_us : float;
      (** The fusion post-pass ([Lcmm_fusion.Fusion.post]); 0 for base
          plans. *)
  channel_assign_us : float;
      (** The DDR channel-assignment pass; 0 at 1 channel. *)
}
(** Per-pass wall-clock microseconds for one planner run.  The only
    pass clock: the stages that made a plan fill it ({!prepare} the
    profile, liveness, prefetch, the interference index and the rows it
    colors, the coloring and the DNNK compile; {!allocate} the DNNK
    solve, the rows splitting mutates and splitting, plus any coloring
    its options redo; {!finish} channel assignment), and a plan carries
    their sum.  A caller that wants totals (the service's stats op) sums
    the plans it computed with {!add_pass_times}.  Plans finished from a
    shared stage value all report that stage's times;
    [sub_pass_times plan.pass_times (prepared_times pr)] is what one
    plan ran beyond its stage. *)

val zero_pass_times : pass_times
val add_pass_times : pass_times -> pass_times -> pass_times

val sub_pass_times : pass_times -> pass_times -> pass_times
(** [sub_pass_times a b] is [a] less [b], field by field: a plan's
    times less those of a stage it shares with other plans. *)

val pass_times_assoc : pass_times -> (string * float) list
(** Stable field-name/value pairs, for reports and the service stats. *)

type plan = {
  config : Accel.Config.t;
  options : options;
  metric : Metric.t;
  vbufs : Vbuffer.t list;          (** All virtual buffers after sharing. *)
  allocation : Dnnk.result;
  prefetch : Prefetch.t option;    (** PDG, when weight prefetch ran. *)
  splitting_iterations : int;
  predicted_latency : float;       (** Eq. 1 total + unhidden prefetch stalls. *)
  pol : float;                     (** Fraction of memory-bound layers helped. *)
  tensor_sram_bytes : int;         (** SRAM granted to tensor buffers. *)
  channel_assignment : Channels.assignment option;
      (** DDR channel map for every stream, when [options.channels > 1]. *)
  pass_times : pass_times;         (** Wall-clock breakdown of this run. *)
}

(** {2 Planner stages}

    The planner runs in three stages.  {!plan} and {!plan_partitioned}
    are their composition; a caller that replans one model at several
    SRAM grants or stall scales (the multi-tenant runtime) keeps the
    earlier stages' values and repeats only the later ones.  Every
    stage is pure in its inputs and never mutates a value it is given,
    so one [prepared] may feed any number of [allocate] calls and one
    [allocated] any number of [finish] calls, from any domain and in
    any order: each result is byte-identical to the one the composed
    call makes. *)

type prepared
(** Everything that depends on the design point, the graph and the
    options but not on the SRAM capacity or the stall scale: the
    latency profile, the metric (Eq. 1 tables), the eligible items and
    their sizes, the weight PDG (pass 2), the items' lifespans (pass 1's
    liveness) as an {!Interference.lifespans} index, the virtual
    buffers the options' sharing and coloring make of them (passes
    1-2) and their {!Dnnk.compiled} rows (the capacity-free half of
    pass 3).  It holds O(items) words beyond the metric and the PDG,
    and no DP or compensation table.  Nothing writes it after
    {!prepare}.  Every plan finished from one [prepared] shares its
    physical metric and PDG. *)

type allocated
(** A prepared model allocated at one capacity: the DNNK solve (pass 3)
    and buffer splitting (pass 4) on the prepared buffers, before the
    stall prune. *)

val prepare :
  ?options:options -> Accel.Config.t -> Accel.Latency.table ->
  Dnn_graph.Graph.t -> prepared
(** Profile, metric, items, PDG, liveness, the interference index,
    coloring and the DNNK compile, under the options' [buffer_sharing]
    and [coloring].  The profiles are
    {!Accel.Latency.profiles} of the given table, the one compile of the
    graph's Eq. 1 inputs (a DSE result's [table]), and each weight's
    slice count reads its bytes from its profile.  Raises
    [Invalid_argument] when the table was compiled for another dtype or
    fusion setting than the config's. *)

val prepare_graph :
  ?options:options -> Accel.Config.t -> Dnn_graph.Graph.t -> prepared
(** {!prepare} on a table compiled here for the config, its build timed
    in [profile_us]: for a caller that has the design point but not the
    DSE's table. *)

val prepared_times : prepared -> pass_times
(** The passes {!prepare} ran (and, for {!prepare_graph}, the table
    compile): the part of [pass_times] every plan finished from the
    stage shares. *)

val prepare_options : options -> options
(** The options with every field {!prepare} does not read reset to its
    {!default_options} value: [feature_reuse], [weight_prefetch],
    [memory_bound_only] and [weight_slices] are kept.  Two option sets
    prepare identically iff they agree here, so this is the key a
    caller may share one [prepared] under. *)

val allocate : ?capacity_bytes:int -> ?options:options -> prepared -> allocated
(** Solve the stage's compiled DNNK rows at the capacity, then run
    splitting.  Splitting adds false edges to an interference graph, so
    it gets its own, built from the stage's index in O(items).  Options whose [buffer_sharing] or [coloring] differ from
    the stage's color and compile their own buffers the way {!prepare}
    does, so the plan is the one {!plan} makes under them.  Nothing in
    the stage is written, so allocations of one stage may run on any
    domains at once.  [options] (default: the prepared stage's)
    are the request's: capacity, coloring, sharing, splitting,
    compensation, channels and fusion are read from them, and the
    finished plan carries them.  Raises [Invalid_argument] when their
    {!prepare_options} differ from the prepared stage's, since the
    prepared passes did not run under them.  [capacity_bytes] caps the
    tensor-buffer budget as [capacity_override = Some capacity_bytes]
    would, and the finished plan carries its options with that
    override; omitted, the options' own override (or the design's
    budget) applies.  Raises [Invalid_argument] on a negative
    capacity. *)

val finish : ?stall_scale:float -> allocated -> plan
(** The post-DNNK stall prune, its UMM safety net and channel
    assignment (when [options.channels > 1]).

    [stall_scale] (default 1.0) multiplies every unhidden prefetch
    stall in the prune and the safety net — the plan↔schedule
    co-iteration's re-cost hook: the runtime observes how much DDR
    contention inflates a tenant's transfers and finishes its plan
    again with stalls scaled up accordingly.  At the default 1.0 the
    scaling is skipped outright and the plan is bit-identical to
    {!plan}'s.  The plan's [pass_times] cover the three stages that
    made it, shared stages included. *)

val plan : ?options:options -> Accel.Config.t -> Dnn_graph.Graph.t -> plan
(** Run LCMM for a fixed design point: [finish (allocate (prepare ..))]
    on a table compiled for the config, on the calling domain. *)

val plan_partitioned :
  ?options:options -> capacity_bytes:int ->
  Accel.Config.t -> Dnn_graph.Graph.t -> plan
(** Run LCMM with the tensor-buffer budget capped at [capacity_bytes]:
    [finish (allocate ~capacity_bytes (prepare ..))], which is [plan]
    with [capacity_override = Some capacity_bytes].  Raises
    [Invalid_argument] when the capacity is negative. *)

type degraded = {
  evicted : Vbuffer.t list;      (** Buffers spilled by the emergency pass. *)
  evicted_bytes : int;
  post_eviction : Dnnk.result;   (** Allocation after eviction alone. *)
  replanned : plan;              (** Full re-solve at the surviving capacity. *)
}

val degrade : surviving_bytes:int -> plan -> Dnn_graph.Graph.t -> degraded
(** Degraded-mode replanning for a plan whose SRAM shrank underneath it
    (bank loss).  First evicts pinned virtual buffers by reverse
    benefit-density ({!Dnnk.evict_to_capacity}) until [surviving_bytes]
    is respected — the emergency spill — then re-solves the whole
    pipeline via {!plan_partitioned} at the surviving capacity for the
    plan resumed from the current node.  Raises [Invalid_argument] on
    negative capacity. *)

val fingerprint : plan -> string
(** Canonical byte string of everything decision-relevant in the plan
    (buffers, allocation, prefetch edges, objectives at full float
    precision) with wall-clock pass times excluded: two plans
    fingerprint equal iff the planner made identical decisions and
    identical float computations.  Digest it (e.g.
    [Dnn_serial.Codec.digest_string]) for compact comparison. *)

val latency : plan -> float

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

type comparison = {
  model : string;
  dtype : Tensor.Dtype.t;
  umm : design_report;
  lcmm : design_report;
  lcmm_plan : plan;
  speedup : float;
}

type designs = {
  umm_report : design_report;
      (** The UMM baseline's report: all a comparison reads of it. *)
  lcmm_config : Accel.Config.t;  (** The LCMM design point. *)
}
(** What a comparison keeps of a DSE: both design points, without the
    {!Accel.Latency.table} the sweep compiled. *)

val designs_of_dse : Dnn_graph.Graph.t -> Accel.Dse.designs -> designs

val compare_staged :
  ?options:options -> model:string -> designs -> Dnn_graph.Graph.t ->
  prepared -> comparison
(** The comparison from its stages: the UMM side from the designs, the
    LCMM plan [finish (allocate ?options prepared)].  The prepared stage
    must be the designs' LCMM design point prepared for the graph; since
    stages are pure, one designs/prepared pair may feed any number of
    comparisons, each with its own capacity, coloring, splitting,
    compensation, channels and fusion.  Raises like {!allocate}. *)

val compare_designs :
  ?options:options -> ?device:Fpga.Device.t -> model:string ->
  Tensor.Dtype.t -> Dnn_graph.Graph.t -> comparison
(** The paper's Table 1 experiment for one (model, precision) pair: DSE a
    UMM baseline and an LCMM design (one {!Accel.Dse.run_both} sweep), run
    the framework on the latter from the sweep's table and report both.
    It is {!compare_staged} on a fresh sweep and a fresh {!prepare} of
    its table.  The LCMM plan is the one {!plan} makes on the LCMM design
    point. *)

val report_of_plan : style_name:string -> Dnn_graph.Graph.t -> plan -> design_report

val helped_layers : plan -> int * int
(** [(helped, memory_bound)] — numerator/denominator of {!plan.pol}. *)
