(** The board runtime driver: admit, partition, compile, co-simulate.

    Ties the runtime subsystem together end to end.  Each tenant spec
    names a model replica with a priority and an arrival time; [run]
    compiles every distinct model once (DSE + unconstrained LCMM plan),
    asks {!Admission} which tenants fit the board, splits the tensor
    SRAM budget across the admitted set with {!Partition}, re-runs the
    LCMM framework's allocation per tenant against its share
    ({!Lcmm.Framework.allocate}), and co-simulates the admitted plans
    under shared DDR bandwidth with {!Engine}.

    With a single tenant the partition grants the whole budget, the
    unconstrained plan is reused verbatim, and the reported latency
    equals {!Sim.Engine.simulate}'s to the last bit. *)

type spec = {
  name : string;      (** Unique instance name, e.g. [alexnet#0]. *)
  model : string;     (** Zoo model name — the compilation cache key. *)
  graph : Dnn_graph.Graph.t;
  priority : int;     (** Lower = more important. *)
  arrival : float;    (** Seconds after time 0 the tenant arrives. *)
}

type options = {
  dtype : Tensor.Dtype.t;
  device : Fpga.Device.t;
  arbitration : Arbiter.t;
  scheduler : Scheduler.t;
  channels : int;
      (** DDR channels to schedule over (clamped to >= 1).  1 — the
          default — is the aggregate fluid-bus model, bit for bit; past
          1 each tenant's streams are bound to channels by
          {!Lcmm.Channels.assign} (or the plan's own assignment when the
          planner ran at the same width) and each channel carries an
          equal bandwidth stripe. *)
  partition : Partition.policy;
  overcommit : float;       (** Admission bandwidth over-subscription. *)
  fw_options : Lcmm.Framework.options;
  faults : Fault.Spec.t option;
      (** Seeded fault injection.  [None] — or a spec with no active
          fault source, which is normalised away — runs the bit-exact
          fault-free engine.  On SRAM bank loss the affected tenant is
          degraded in place: pinned buffers evicted by reverse
          benefit-density, the plan re-solved at the surviving capacity
          ({!Lcmm.Framework.degrade}) and execution resumed from the
          current node. *)
}

val slack_of : Lcmm.Framework.plan -> Sim.Engine.run -> int -> float
(** [slack_of plan iso target]: the EDF slack of [target]'s prefetch,
    how far its PDG source's start precedes its own start in the
    isolated run [iso] of [plan]; 0 without a PDG edge. *)

val default_options : options
(** I16 on the VU9P, fair-share arbitration, EDF scheduling, one
    channel, equal partitioning, 4x bandwidth overcommit, no faults.
    Admission grants every tenant at least one DNNK block (or its whole
    demand, if smaller). *)

val run : ?pool:Lcmm.Pool.t -> options -> spec list -> Report.t
(** Admit, partition, compile and co-simulate the tenants;
    deterministic for a fixed spec list.  Every plan comes from one
    table keyed by (model, grant, stall scale), filled in three phases:
    the distinct models (design-space exploration plus unconstrained
    plan, from the first spec naming the model), the admitted tenants'
    grants, and — under the [optimized] scheduler — each round's
    contention-scaled replans.  A key is solved at most once per run,
    and a scale-1 grant covering the base plan's footprint reuses the
    base plan.  Plans are built from the planner's stages
    ({!Lcmm.Framework.prepare}, [allocate], [finish]) and the stage
    values are kept too — one prepared model per model, one allocation
    per (model, grant) — so a scaled key reruns only [finish], fusion
    and the isolated simulation.  [pool] fans each stage's missing
    values out across domains; results are stored by key on the
    calling domain, so the report is byte-identical to the sequential
    run. *)
