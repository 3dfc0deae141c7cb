(** Weight-buffer prefetching and the prefetching dependence graph
    (paper section 3.2, Fig. 6).

    For each node whose weights will live on chip, loading the tensor
    takes [T = bytes / bw] seconds.  A backtrace over the schedule finds
    the latest earlier node [k'] such that the elapsed execution time
    from the start of [k'] to the start of the target is at least [T];
    starting the prefetch with [k'] then fully hides the load.  When even
    starting at node 0 is too late (early layers with huge weights), the
    residual is an unhidden stall the allocator must charge.

    The prefetch edge [(k', k)] also bounds the weight buffer's lifespan:
    the buffer is busy from [k'] to [k], which is what weight-buffer
    sharing colors over. *)

type edge = {
  source : int;         (** Node whose start triggers the prefetch. *)
  target : int;         (** Node consuming the weights. *)
  load_seconds : float; (** One-time load latency of the tensor. *)
  stall_seconds : float;(** Unhidden residual (0 when fully hidden). *)
}

type t

val build :
  Metric.t -> targets:int list -> node_latency:(int -> float) -> t
(** Build the PDG for the given weight-consuming nodes, using
    [node_latency] as the elapsed-time estimate per schedule slot
    (typically the UMM node latencies, the design state in which the
    pass runs).  Raises [Invalid_argument] if a target has no weights. *)

val source_of : t -> int -> int option
(** PDG source for a target node; [None] when the node is not a target. *)

val edges : t -> edge list
(** All prefetch edges, by target order. *)

val stall_seconds : t -> int -> float
(** Residual stall for a target (0 for unknown targets). *)

val pp : Format.formatter -> t -> unit
