(** Lifespan intervals over the topological schedule.

    Node ids double as topological positions.  A feature value is live
    from its producing node to its last consumer (both inclusive: the
    producer's output buffer and a consumer's input buffer coexist with
    the node's execution).  A prefetched weight buffer is live from the
    node its prefetch starts at to the node that consumes it. *)

type interval = {
  start_pos : int;
  end_pos : int;  (** >= [start_pos]. *)
}

val make : start_pos:int -> end_pos:int -> interval
(** Raises [Invalid_argument] if [end_pos < start_pos]. *)

val overlaps : interval -> interval -> bool
(** Closed-interval intersection test. *)

val feature_interval : Dnn_graph.Graph.t -> int -> interval
(** Lifespan of the value produced by the given node. *)

val item_interval :
  Dnn_graph.Graph.t -> prefetch_source:(int -> int option) -> Metric.item ->
  interval
(** Lifespan of an allocation item.  For weights, [prefetch_source]
    supplies the PDG start node (defaults to the consuming node itself
    when [None], i.e. no prefetch headroom). *)

val metric_interval :
  Metric.t -> prefetch_source:(int -> int option) -> Metric.item -> interval
(** {!item_interval} on the metric's graph, reading each feature value's
    last use from the metric's [last_use] table instead of walking the
    graph. *)

val pp : Format.formatter -> interval -> unit
