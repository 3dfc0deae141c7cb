(** Graphviz export of computation graphs, for documentation and
    debugging.  Nodes are labelled with operator mnemonic and output
    shape; block tags become subgraph clusters. *)

val to_dot : Graph.t -> string
(** Render the graph as a Graphviz [digraph dnn] document. *)

val write_file : path:string -> Graph.t -> unit
(** Write {!to_dot} output to [path]. *)
