(** MobileNet-v2 (Sandler et al., 2018).

    Inverted-residual bottlenecks built from depthwise convolutions
    (grouped convolutions with one group per channel).  Depthwise layers
    have extreme bandwidth-to-compute ratios, making the model a stress
    test for the memory-bound classification: almost the entire network
    sits under the bandwidth roof. *)

val name : string

val build : unit -> Dnn_graph.Graph.t
(** Standard width-1.0 MobileNet-v2, 224x224 input: 17 inverted-residual
    blocks + stem and head convolutions. *)

