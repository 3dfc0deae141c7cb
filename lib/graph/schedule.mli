(** Topological schedules and memory-aware reordering.

    The whole allocation stack identifies node ids with schedule
    positions, so a schedule change is expressed by *renumbering* the
    graph ({!apply}) rather than by threading a permutation everywhere.
    Liveness-based buffer sharing is schedule-sensitive: the order fixed
    by the builder is not always the one minimizing overlapping
    lifespans.  {!memory_aware} list-schedules the graph greedily,
    preferring ready nodes that free the most live bytes — a classic
    register-pressure heuristic applied to feature values. *)

val default : Graph.t -> int array
(** The identity schedule. *)

val memory_aware : Tensor.Dtype.t -> Graph.t -> int array
(** Dependency-respecting order chosen to reduce peak live bytes. *)

val breadth_first : Graph.t -> int array
(** Level order (by longest distance from the inputs) — the order many
    exporters emit.  Valid, but it interleaves parallel branches and
    keeps more values live than a depth-first walk; the pessimal
    reference for {!memory_aware}. *)

val peak_live_bytes : Tensor.Dtype.t -> Graph.t -> int array -> int
(** Maximum sum of live feature-value bytes over the schedule (a value is
    live from its producer's slot to its last consumer's slot).  Raises
    [Invalid_argument] on an invalid schedule. *)

val live_area : Tensor.Dtype.t -> Graph.t -> int array -> int
(** Sum over feature values of [bytes * lifespan-in-slots] — the
    byte-slots of buffer occupancy.  Unlike the peak, which is usually
    pinned by a linear stem, the area moves with branch interleaving and
    tracks how much sharing the coloring can recover.  Raises
    [Invalid_argument] on an invalid schedule. *)

val apply : Graph.t -> int array -> Graph.t
(** Renumber the graph so ids follow the schedule.  Raises
    [Invalid_argument] on an invalid schedule. *)
