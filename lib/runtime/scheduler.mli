(** Cross-tenant transfer scheduling.

    The arbiter splits bandwidth among the transfers the scheduler lets
    onto a DDR channel; the scheduler decides *which* pending transfers
    those are, independently per channel.  [Greedy] is the
    work-conserving baseline: every tenant's head-of-queue transfer
    contends as soon as it is released.  [Edf] (earliest deadline first)
    instead dedicates each channel to its most urgent transfer: each
    weight prefetch carries a deadline equal to its release time plus
    its slack (the isolated-schedule distance from its PDG source to its
    target — how long the load may take before the target node stalls),
    and demand loads and streamed-weight transfers are due immediately.
    Draining urgent transfers at full bandwidth instead of fair-sharing
    everything is what turns prefetches that contention would expose
    back into hidden ones.

    [Optimized] executes a searched transfer order: the schedule
    optimizer ({!Optimizer}) explores orders over the PDG with
    per-channel busy timelines and encodes the chosen order as per-
    transfer ranks; the engine then always grants the lowest-ranked
    pending transfer of each channel.  With no rank table (all ranks 0)
    it degenerates to exactly [Edf]. *)

type t = Greedy | Edf | Optimized

val to_string : t -> string

val of_string : string -> t option

val all : t list

val exclusive : t -> bool
(** Whether the policy grants each channel to one transfer at a time:
    [Edf] and [Optimized] do, [Greedy] lets every pending transfer
    contend. *)

val more_urgent : t -> Transfer.t -> Transfer.t -> bool
(** [more_urgent t p best]: [p] is picked over [best].  [Edf]: earlier
    deadline, ties by priority then key.  [Optimized]: lower rank, ties
    by the [Edf] order.  [Greedy] is ordered as [Edf].  Reads the
    transfers' own fields and allocates nothing: the engine folds it
    over its tenant array. *)

val eligible : t -> Transfer.t list -> int list
(** Keys of the transfers allowed to contend for bandwidth right now,
    given one channel's pending transfers: all of them when not
    {!exclusive}, else the first one no later transfer is
    {!more_urgent} than (a left fold). *)
