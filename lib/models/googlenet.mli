(** GoogLeNet / Inception-v1 (Szegedy et al., 2014).

    Nine inception blocks (3a..5b), each tagged with its block name so the
    per-block performance series of the paper's Fig. 8 can be aggregated.
    Auxiliary classifier heads are omitted: they are train-time only and
    play no role in inference latency. *)

val name : string

val build : unit -> Dnn_graph.Graph.t
(** Stem + inception 3a,3b,4a..4e,5a,5b + classifier, 224x224 input. *)

