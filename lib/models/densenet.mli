(** DenseNet-121 (Huang et al., 2017).

    Every layer of a dense block concatenates all earlier layers'
    outputs, so feature values have very long, heavily overlapping
    lifespans — the worst case for liveness-based buffer sharing and the
    structure the paper's introduction names as motivation for moving
    past linear-model double buffering. *)

val name : string

val build : unit -> Dnn_graph.Graph.t
(** DenseNet-121: growth rate 32, dense blocks of [6; 12; 24; 16] layers
    with transition layers between them, 224x224 input. *)

