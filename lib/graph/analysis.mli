(** Per-layer computation/communication accounting.

    These are the raw quantities behind the paper's roofline study
    (section 2.2): operation counts and the off-chip bytes each data
    source (input features, weights, output features) would move if the
    layer streamed everything from DDR exactly once. *)

val op_intensity : Tensor.Dtype.t -> Graph.t -> int -> float
(** Operations ([2 * macs + aux_ops]) per off-chip byte, where the bytes
    are the node's input feature maps, weight tensor and output feature
    map, each moved once; [infinity] for nodes that move no
    data (never happens for valid graphs, but total volume 0 is mapped
    to [infinity] rather than a division error). *)

val value_bytes : Tensor.Dtype.t -> Graph.t -> int -> int
(** Size of the feature value produced by the node. *)

val total_feature_bytes : Tensor.Dtype.t -> Graph.t -> int
(** Sum of all feature value footprints. *)
