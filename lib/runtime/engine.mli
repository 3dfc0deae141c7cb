(** Bandwidth-contended multi-tenant co-simulation.

    Every admitted tenant executes its own plan node by node exactly as
    {!Sim.Engine.simulate} would — same release points, same Eq. 1
    component arithmetic, via {!Sim.Node_model} — but all DDR weight
    transfers (prefetches, demand loads, streamed weight tiles) go
    through the board's DDR channels: each transfer is statically bound
    to one of [channels] channels (the device's DDR bank count, each an
    equal 1/C stripe of the aggregate bandwidth), the {!Scheduler} picks
    which released transfers may use each channel, the {!Arbiter} splits
    that channel's stripe among them, and a transfer running at fraction
    [r] of the aggregate bandwidth takes [1/r] times its isolated
    duration.  Prefetches that were fully hidden in isolation can
    therefore become exposed stalls under contention — the paper's
    data-transfer bottleneck reappearing between tenants.

    With [channels = 1] (the default) the grouping collapses to one
    scheduler/arbiter call over all pending transfers: the pre-channel
    aggregate fluid-bus model, float for float.  With a single tenant
    there is additionally never more than one transfer on the bus, every
    rate is 1, and the co-simulation reproduces the isolated engine bit
    for bit (pinned by test/test_runtime.ml across the model zoo).

    An optional {!Fault.Injector.t} adds seeded board faults as discrete
    events: DDR droop windows scale every granted rate, transfers can
    stall at the channel head or fail and retry with capped exponential
    backoff, SRAM bank losses push the affected tenant into degraded
    mode (evict + replan via its [replan] callback, resume from the
    current node), and abort events finish a tenant early.  With no
    injector every fault path is skipped and the engine is exactly the
    fault-free one.

    Each event instant is settled to a fixpoint: fault events fire,
    every tenant's node state machine steps, channel heads start, the
    channels are arbitrated and due transfers complete, in tenant order,
    until a pass changes nothing.  Rates are a function of the held
    transfers, their stalls and the instant alone, so a pass
    re-arbitrates only when it is the instant's first or follows a
    start, a completion (or failed attempt) or a fired fault event;
    skipping the other passes is exact, and so is skipping a tenant
    whose node step changed nothing until a completion, a fault or the
    next instant touches it.  Arbitration picks each channel's
    contenders with {!Scheduler.more_urgent} and splits its stripe with
    {!Arbiter.preferred} and a per-run table of {!Arbiter.share}, folded
    over the tenant array in place, reading each {!Transfer.t} directly.

    A run allocates what it must build and nothing per instant: a
    transfer is one record plus its flat float clocks, a node's stage is
    a constant constructor with its times in the tenant's float-only
    clock, its {!Sim.Engine.node_timing} is built once when it finishes,
    and the wake-up candidates (cached per tenant and scanned for the
    next instant) and the timeline pieces pass their floats unboxed.  A
    run's minor-heap allocation is about
    40 words per node and transfer (bounded at 45 by
    test/test_runtime.ml and ci.sh).

    A run reads each tenant through its {!compiled} tables: every
    per-node fact that depends only on the plan, worked out once from
    (metric, on-chip set, PDG).  {!run} compiles its inputs and runs
    them; a caller that runs the same tenants many times (the schedule
    optimizer scores every candidate order against one input set)
    compiles once and calls {!run_compiled}. *)

type degraded_plan = {
  deg_on_chip : Lcmm.Metric.Item_set.t;
  deg_prefetch : Lcmm.Prefetch.t option;
  deg_pinned_bytes : int;     (** What the degraded plan pins. *)
  deg_evicted_bytes : int;    (** Emergency-evicted virtual buffer bytes. *)
  deg_surviving_bytes : int;  (** Capacity the replan was solved against. *)
}
(** What a tenant resumes with after an SRAM bank loss: the degraded
    allocation and PDG from {!Lcmm.Framework.degrade}, plus the
    accounting the report surfaces. *)

type tenant_input = {
  label : string;
  metric : Lcmm.Metric.t;
  on_chip : Lcmm.Metric.Item_set.t;
  prefetch : Lcmm.Prefetch.t option;
  arrival : float;         (** Seconds after time 0 the tenant starts. *)
  priority : int;          (** Lower = more important (arbitration, EDF ties). *)
  slack : int -> float;
      (** Per target node, how long its prefetch may take before the
          target stalls — the isolated-schedule distance from the PDG
          source's start to the target's start.  Defines EDF deadlines. *)
  replan : (lost_bytes:int -> degraded_plan option) option;
      (** Degraded-mode callback, invoked on SRAM bank loss with the
          tenant's cumulative lost bytes; [None] (or a [None] return)
          aborts the tenant instead of degrading it. *)
}

type fault_stats = {
  retries : int;              (** Failed transfer attempts that were retried. *)
  stalls : int;               (** Injected transfer-start stalls. *)
  degraded : int;             (** Bank-loss events absorbed by replanning. *)
  evicted_bytes : int;        (** Emergency-evicted virtual buffer bytes. *)
  pinned_after : int option;  (** Pinned bytes after the last degrade. *)
  surviving_bytes : int option;
      (** SRAM capacity surviving the last bank loss. *)
  aborted : string option;    (** Abort reason when the tenant died early. *)
}

type tenant_run = {
  label : string;
  timings : Sim.Engine.node_timing array;
  finish : float;          (** Absolute finish time of the last node. *)
  latency : float;         (** [finish - arrival]. *)
  prefetch_wait : float;
  wt_channel_busy : float;
  ddr_bytes : float;       (** Engine-accounted DDR traffic (weight
                               transfers plus feature streams), including
                               the wasted bytes of failed attempts. *)
  faults : fault_stats;    (** All-zero when no injector was given. *)
}

type segment = { seg_start : float; seg_end : float; utilization : float }
(** One piece of the bus-utilization timeline: the summed bandwidth
    fraction in use over [seg_start, seg_end). *)

type kind = Transfer.kind = Prefetch_load | Demand_load | Weight_stream_x
(** DDR transfer kinds: PDG-scheduled weight prefetches, weight loads
    demanded at node entry, and streamed tiles of unpinned weight
    remainders. *)

type xfer_log = {
  log_owner : int;        (** Tenant index. *)
  log_target : int;       (** Node the transfer feeds. *)
  log_kind : kind;
  log_channel : int;      (** DDR channel the transfer ran on. *)
  log_bytes : float;
  log_load : float;       (** Seconds at full aggregate bandwidth. *)
  log_deadline : float;
  log_released : float;   (** Queue-entry instant (its PDG release). *)
  log_started : float;    (** First instant granted bandwidth; -1 = never. *)
  log_finished : float;   (** Finish instant; -1 = cancelled/aborted. *)
}
(** Final state of one transfer — the run's communication schedule,
    consumed by the schedule optimizer and the schedule-conserve
    oracle. *)

type result = {
  tenants : tenant_run array;
  makespan : float;        (** Max finish time over all tenants. *)
  timeline : segment list; (** Chronological, adjacent equal segments merged. *)
  channels : int;          (** Channel count the run was scheduled over. *)
  channel_timelines : segment list array;
      (** Per-channel utilization timelines, in the same aggregate-
          bandwidth units as [timeline] (they sum to it; a channel's
          full stripe is utilization [1/channels]).  At one channel,
          [channel_timelines.(0) = timeline] exactly. *)
  transfers : xfer_log list;  (** Every transfer created, in key order. *)
}

type compiled = private {
  input : tenant_input;
  profiles : Accel.Latency.profile array;   (** The metric's profiles. *)
  frac : float array;
      (** Pinned fraction of each node's weight tensor; the node's
          weight counts as pinned when it is [> 0.]. *)
  once_bytes : float array;    (** DDR bytes of loading the pinned part. *)
  demand : float option array;
      (** Demand load due at node entry when no released prefetch edge
          targets the node ({!Sim.Node_model.demand_load}). *)
  streamed : float array;      (** Streamed seconds of the unpinned part. *)
  stream_bytes : float array;  (** Its DDR bytes. *)
  if_time : float array;       (** Input-streaming seconds. *)
  of_time : float array;       (** Output write-back seconds. *)
  if_bytes : float array;      (** Input-stream DDR bytes. *)
  of_bytes : float array;      (** Output write-back DDR bytes. *)
  slack : float array;         (** The input's [slack], node by node. *)
  released : Lcmm.Prefetch.edge list array;
      (** Per source node, the prefetch edges released at its start. *)
  edge_flags : bool array;     (** Whether a released edge targets the node. *)
}
(** One tenant's plan, compiled.  Every array is indexed by node id,
    computed with {!Sim.Node_model}'s functions (so the floats are the
    isolated engine's), and never written after {!compile} returns:
    one value can back any number of runs, on any number of domains.

    What a run mutates is its own: per-node pending-transfer counts
    and weight-ready times, the transfer queues, and copies of
    [released] and [edge_flags].  An SRAM bank loss builds the degraded
    plan's tables for that tenant inside that run and truncates its
    copy of [released] to the nodes not yet entered; the compiled
    value is untouched. *)

val compile : tenant_input -> compiled

val run_compiled :
  arbitration:Arbiter.t -> scheduler:Scheduler.t -> ?channels:int ->
  ?assign:(owner:int -> target:int -> kind -> int) ->
  ?rank:(owner:int -> target:int -> kind -> float) ->
  ?faults:Fault.Injector.t -> compiled array -> result
(** {!run} over compiled tenants: [run ... inputs] is
    [run_compiled ... (Array.map compile inputs)]. *)

val run :
  arbitration:Arbiter.t -> scheduler:Scheduler.t -> ?channels:int ->
  ?assign:(owner:int -> target:int -> kind -> int) ->
  ?rank:(owner:int -> target:int -> kind -> float) ->
  ?faults:Fault.Injector.t -> tenant_input array -> result
(** Co-simulate the tenants to completion.  Deterministic: tenants are
    processed in index order, transfers carry creation-order keys, and
    every fault decision is a pure hash of the injector seed and the
    transfer key.  Omitting [faults] gives exactly the fault-free
    engine.

    [channels] (default 1) is the number of equal DDR bandwidth stripes;
    [assign] maps each transfer onto one (out-of-range or missing
    assignments land on channel 0).  [rank] supplies the [Optimized]
    scheduler's searched-order ranks; without it [Optimized] behaves as
    [Edf].  Omitting all three gives exactly the pre-channel aggregate
    engine. *)
