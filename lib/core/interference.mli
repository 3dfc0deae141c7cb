(** Interference graphs over allocation items (paper Fig. 5a).

    Two items interfere when their lifespans overlap — they can then
    never share a buffer.  The buffer-splitting pass additionally injects
    *false* interference edges between chosen non-overlapping pairs to
    force them into different virtual buffers.

    No adjacency is stored.  Two items conflict for one of three
    reasons: they are in different never-share classes, their intervals
    overlap, or a false edge joins them.  {!lifespans} indexes the first
    two in O(n) words: the intervals, a class per item, each class's
    starts and ends in ascending order and the item index.  A graph
    ({!of_lifespans}) adds a false-edge partner list per item, so
    [conflict] tests the three causes and [degree] counts overlaps with
    two binary searches. *)

type lifespans
(** The capacity-free index a graph is built from.  Nothing writes it
    after {!lifespans} returns, so any number of graphs, built on any
    domains, may share one. *)

type t

val lifespans :
  ?never_share_class:(Metric.item -> int) ->
  items:Metric.item array -> intervals:Liveness.interval array -> unit ->
  lifespans
(** Raises [Invalid_argument] when the arrays differ in length or an
    interval ends before it starts.  [never_share_class] partitions the
    items by buffer pool: items in *different* classes (e.g. a feature
    and a weight tensor, which live in separate pools) always conflict,
    regardless of lifespans. *)

val of_lifespans : lifespans -> t
(** A fresh graph over the index, with no false edges.  O(n). *)

val build :
  ?never_share_class:(Metric.item -> int) ->
  items:Metric.item array -> intervals:Liveness.interval array -> unit -> t
(** [of_lifespans (lifespans ...)]. *)

val item_count : t -> int

val item : t -> int -> Metric.item
(** Item at the given index. *)

val interval : t -> int -> Liveness.interval

val class_id : t -> int -> int
(** The item's never-share class, numbered densely from 0 in order of
    first appearance.  Items of different classes always conflict. *)

val partners : t -> int -> int list
(** The items a false edge joins to this one, each once. *)

val index_of_item : t -> Metric.item -> int option
(** Index of the first occurrence of an item, as a forward linear scan
    would find it. *)

val add_false_edge : t -> int -> int -> unit
(** Force items at the two indices apart.  Idempotent; raises
    [Invalid_argument] on equal or out-of-range indices. *)

val conflict : t -> int -> int -> bool
(** Different classes, lifespan overlap or false edge. *)

val degree : t -> int -> int
(** Number of items in conflict with the item at the given index. *)
