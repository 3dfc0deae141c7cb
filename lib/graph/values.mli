(** Feature-value resolution.

    A *value* is the feature data produced by one node.  [Concat] nodes
    are storage-transparent: real accelerators implement concatenation by
    letting producers write adjacent ranges of one buffer, so a concat
    node neither computes nor moves data and its "output" is an alias of
    its input values.  This module resolves through transparent nodes so
    that traffic, liveness and allocation all work on real storage
    values. *)

val source_values : Graph.t -> int -> int list
(** Value ids (producing node ids, never transparent nodes) whose data the
    given node reads, resolved through transparent predecessors.  Order
    follows the operator's input order; duplicates are kept (a node
    reading one value twice streams it twice). *)

val source_table : Graph.t -> int array array
(** [source_values] of every node, as arrays indexed by node id, in one
    pass that classifies each node once. *)

val consumers : Graph.t -> int -> int list
(** Node ids that read the given node's value, resolved through
    transparent successors (the transparent nodes themselves are not
    listed).  Sorted, without duplicates.  Empty for graph outputs. *)

val is_value : Graph.t -> int -> bool
(** True when the node produces real storage (i.e. is not transparent). *)

val last_use : Graph.t -> int -> int
(** Topological position (= id) of the last consumer of the node's value,
    or the node's own id when it has no consumer. *)
