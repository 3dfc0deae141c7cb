(** Inception-v3 (Szegedy et al., 2015).

    The middle member of the inception family: factorized 7x7
    convolutions in the 17x17 stage and expanded filter banks in the 8x8
    stage.  Complements GoogLeNet and Inception-v4 for breadth in the
    inception-style workloads the paper's motivation is built on. *)

val name : string

val build : unit -> Dnn_graph.Graph.t
(** Stem + 3x block-A (35x35) + reduction + 4x block-B (17x17) +
    reduction + 2x block-C (8x8) + classifier, 299x299 input. *)

