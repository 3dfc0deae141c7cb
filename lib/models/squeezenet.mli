(** SqueezeNet 1.1 (Iandola et al., 2016).

    Fire modules (squeeze 1x1, then parallel expand 1x1 / expand 3x3
    concatenated) with very few parameters — the whole weight set fits on
    chip, so LCMM's weight handling degenerates gracefully to
    keep-everything, a useful boundary case. *)

val name : string

val build : unit -> Dnn_graph.Graph.t
(** SqueezeNet 1.1: 8 fire modules, 227x227 input. *)

