(** Model registry.

    The paper's benchmark suite is ResNet-152 ("RN"), GoogLeNet ("GN") and
    Inception-v4 ("IN"); the zoo also carries ResNet-50 (Table 3 baseline
    comparison) and the linear AlexNet/VGG-16 used by tests. *)

type entry = {
  model_name : string;
  aliases : string list;   (** e.g. ["RN"] for ResNet-152. *)
  build : unit -> Dnn_graph.Graph.t;
}

val all : entry list

val find : string -> entry option
(** Case-insensitive lookup by name or alias. *)

val build : string -> Dnn_graph.Graph.t
(** [find] then build; raises [Invalid_argument] with the known names on
    an unknown model. *)

