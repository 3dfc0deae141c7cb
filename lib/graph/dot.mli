(** Graphviz export of computation graphs, for documentation and
    debugging.  Nodes are labelled with operator mnemonic and output
    shape; block tags become subgraph clusters. *)

val write_file : path:string -> Graph.t -> unit
(** Write the graph to [path] as a Graphviz [digraph dnn] document. *)
