(** Fixed-width packed bitsets over native ints.

    The planner's graph passes (interference adjacency rows and their
    prefix fills, coloring's per-buffer conflict masks) reduce to
    word-parallel operations and single bit tests over these. *)

type t

val create : int -> t
(** [create width] is the empty set over bits [0 .. width-1]. *)

val width : t -> int

val set : t -> int -> unit
val clear : t -> int -> unit

val mem : t -> int -> bool
(** All three raise [Invalid_argument] on out-of-range bits. *)

val reset : t -> unit
(** Clear every bit in place. *)

val copy : t -> t
(** A fresh set with the same bits. *)

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst src] makes [dst] hold exactly the bits of [src]. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ors [src] into [dst]. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] clears in [dst] every bit set in [src].  The
    three in-place operations run one word at a time and raise
    [Invalid_argument] when the widths differ. *)

val cardinal : t -> int
(** Population count. *)

val iter : (int -> unit) -> t -> unit
(** Visit set bits in ascending order. *)
