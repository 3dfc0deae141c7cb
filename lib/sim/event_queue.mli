(** Binary min-heap of (time, tag) wake-up candidates for the
    discrete-event engines.

    Entries are pushed whenever a tag's state changes and are *not*
    removed when they go stale; the consumer validates the minimum
    against current state and drops invalid heads (lazy invalidation).
    This keeps both operations O(log n) with no decrease-key. *)

type t

val create : unit -> t

val length : t -> int

val clear : t -> unit

val push : t -> time:float -> int -> unit

val min_time : t -> float
(** Time of the earliest entry, or [infinity] when empty.  Like
    {!min_tag}, it allocates nothing, so an engine can read the head on
    every event. *)

val min_tag : t -> int
(** Tag of the earliest entry; raises [Invalid_argument] when empty. *)

val drop_min : t -> unit
(** Remove the earliest entry; raises [Invalid_argument] when empty. *)
