(** The board-runtime report: per-tenant outcomes, the makespan and the
    bus-utilization timeline, as both JSON (the [lcmm runtime --json]
    document and the service's [run] payload) and a human-readable
    rendering. *)

type status =
  | Admitted
  | Queued of string    (** Reason; resubmit when the board drains. *)
  | Rejected of string  (** Reason; can never run on this board. *)
  | Aborted of string   (** Killed mid-run by an injected fault. *)

type tenant_report = {
  name : string;            (** Unique instance name, e.g. [alexnet#0]. *)
  model : string;
  priority : int;
  status : status;
  arrival_ms : float;
  grant_bytes : int;        (** SRAM partition share. *)
  demand_bytes : int;       (** Unconstrained solo-plan SRAM appetite. *)
  sram_used_bytes : int;    (** What the partitioned plan actually pinned —
                                the degraded plan's pinning after a bank
                                loss. *)
  isolated_ms : float;      (** Partitioned plan, exclusive bandwidth. *)
  latency_ms : float;       (** Same plan under contention. *)
  finish_ms : float;        (** Absolute completion time. *)
  slowdown : float;         (** [latency / isolated]. *)
  prefetch_wait_ms : float;
  ddr_mb : float;
  faults : Engine.fault_stats; (** Per-tenant fault counters; {!no_faults}
                                   for fault-free runs. *)
}

val no_faults : Engine.fault_stats
(** All-zero counters for tenants that never ran under faults. *)

type schedule_info = {
  sched_rounds : int;            (** Plan/schedule co-iteration rounds run. *)
  sched_history_ms : float list; (** Per-round optimized makespan, in order. *)
  sched_converged : bool;        (** A round stopped improving (or the
                                     stall-scale fixpoint was reached)
                                     before the round bound. *)
  sched_chosen : string;         (** Winning candidate label. *)
  sched_candidates : (string * float) list;
      (** Every candidate of the winning round with its makespan (ms). *)
}
(** Telemetry of the [optimized] scheduler's search — [None] for
    [greedy]/[edf] runs. *)

type t = {
  device : string;
  dtype : string;
  arbitration : Arbiter.t;
  scheduler : Scheduler.t;
  partition : Partition.policy;
  budget_bytes : int;
  board_bandwidth : float;   (** Bytes/second. *)
  overcommit : float;
  makespan_ms : float;
  bus_busy_fraction : float; (** Time-weighted mean bus utilization. *)
  tenants : tenant_report list;
  timeline : Engine.segment list;
  channels : int;            (** DDR channels the run was scheduled over. *)
  channel_timelines : Engine.segment list array;
      (** Per-channel utilization timelines (aggregate-bandwidth units).
          JSON emits the per-channel fields — and [channels] itself —
          only past one channel, so 1-channel reports stay byte-identical
          to the aggregate-bus format. *)
  schedule : schedule_info option;
  faults : Fault.Spec.t option;
      (** The (non-empty) fault spec the run executed under.  When
          [None], both renderings are byte-identical to the fault-free
          engine's: every fault field is omitted. *)
}

val channel_busy_fraction :
  channels:int -> makespan_ms:float -> Engine.segment list -> float
(** Time-weighted busy fraction of one channel's timeline.  Segment
    utilizations are in aggregate-bandwidth units, so a channel's full
    stripe is [1/channels]; the helper rescales before clamping at
    saturation.  Used by the JSON rendering and [lcmm bench runtime]. *)

val to_json : t -> Dnn_serial.Json.t

val pp : Format.formatter -> t -> unit
