(** Per-layer computation/communication accounting.

    These are the raw quantities behind the paper's roofline study
    (section 2.2): operation counts and the off-chip bytes each data
    source (input features, weights, output features) would move if the
    layer streamed everything from DDR exactly once. *)

type volumes = {
  if_bytes : int;  (** All input feature maps of the node. *)
  wt_bytes : int;  (** Weight tensor (0 when the node has none). *)
  of_bytes : int;  (** Output feature map. *)
}

val volumes : Tensor.Dtype.t -> Graph.t -> int -> volumes
(** Single-pass data volumes for one node. *)

val total_bytes : volumes -> int

val ops : Graph.t -> int -> int
(** Total arithmetic operations of a node: [2 * macs + aux_ops]. *)

val op_intensity : Tensor.Dtype.t -> Graph.t -> int -> float
(** Operations per off-chip byte; [infinity] for nodes that move no
    data (never happens for valid graphs, but total volume 0 is mapped
    to [infinity] rather than a division error). *)

val value_bytes : Tensor.Dtype.t -> Graph.t -> int -> int
(** Size of the feature value produced by the node. *)

val weight_bytes : Tensor.Dtype.t -> Graph.t -> int -> int
(** Size of the node's weight tensor; 0 when it has none. *)

val total_feature_bytes : Tensor.Dtype.t -> Graph.t -> int
(** Sum of all feature value footprints. *)
