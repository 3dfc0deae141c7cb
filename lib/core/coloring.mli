(** Size-minimizing buffer coloring.

    Register-allocation-style graph coloring over the interference graph,
    with the paper's twist (section 3.1): the objective is the total
    *byte* size of the buffers, not their count — a color's cost is the
    largest member assigned to it.  Each item joins the lowest-index
    compatible buffer; the strategies differ only in the order they
    place items.  The default places them in decreasing size, so a
    buffer never grows once created; [First_fit] (classic decreasing
    degree) is kept for the ablation bench.

    A buffer keeps its class and its members' intervals sorted by
    start.  An item may join when its class matches, one binary search
    finds no member overlapping it and no false edge joins it to a
    member. *)

type strategy =
  | Min_growth  (** Decreasing size, lowest-index compatible buffer. *)
  | First_fit   (** Decreasing degree, lowest-index compatible buffer. *)

val color :
  ?strategy:strategy -> Interference.t -> sizes:int array -> Vbuffer.t list
(** Group the interference graph's items into virtual buffers; [sizes]
    gives each item's byte size (same indexing as the graph).  Buffers
    are returned with dense ids in creation order.  Raises
    [Invalid_argument] on a size-array length mismatch. *)

val total_bytes : Vbuffer.t list -> int
(** Sum of buffer sizes — the coloring objective. *)
