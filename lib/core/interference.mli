(** Interference graphs over allocation items (paper Fig. 5a).

    Two items interfere when their lifespans overlap — they can then
    never share a buffer.  The buffer-splitting pass additionally injects
    *false* interference edges between chosen non-overlapping pairs to
    force them into different virtual buffers.

    A graph is built in two steps.  {!lifespans} indexes the items in
    O(n) words: their intervals in start and end order (a counting sort
    over schedule positions), one complement mask per never-share class
    and the item index.  {!of_lifespans} then materialises the packed
    bitset adjacency rows (n{^ 2}/w words), filled a word at a time from
    prefix sets of the two orders, so [conflict] and [degree] are bit
    tests and popcounts rather than per-query closure calls. *)

type lifespans
(** The capacity-free index a graph is built from.  Nothing writes it
    after {!lifespans} returns, so any number of graphs, built on any
    domains, may share one. *)

type t

val lifespans :
  ?never_share_class:(Metric.item -> int) ->
  items:Metric.item array -> intervals:Liveness.interval array -> unit ->
  lifespans
(** Raises [Invalid_argument] when the arrays differ in length.
    [never_share_class] partitions the items by buffer pool: items in
    *different* classes (e.g. a feature and a weight tensor, which live
    in separate pools) always conflict, regardless of lifespans.  Each
    row ors in its class's complement mask. *)

val of_lifespans : lifespans -> t
(** A fresh graph over the index: its own rows, no false edges. *)

val build :
  ?never_share_class:(Metric.item -> int) ->
  items:Metric.item array -> intervals:Liveness.interval array -> unit -> t
(** [of_lifespans (lifespans ...)]. *)

val item_count : t -> int

val item : t -> int -> Metric.item
(** Item at the given index. *)

val interval : t -> int -> Liveness.interval

val index_of_item : t -> Metric.item -> int option
(** Index of the first occurrence of an item, as a forward linear scan
    would find it. *)

val add_false_edge : t -> int -> int -> unit
(** Force items at the two indices apart.  Idempotent; raises
    [Invalid_argument] on equal or out-of-range indices. *)

val false_edges : t -> (int * int) list
(** Injected edges, as ordered index pairs. *)

val conflict : t -> int -> int -> bool
(** Lifespan overlap or false edge. *)

val row : t -> int -> Bitset.t
(** The packed adjacency row of an item.  Callers must treat it as
    read-only; it aliases the graph's internal state. *)

val degree : t -> int -> int
(** Number of items in conflict with the item at the given index. *)
