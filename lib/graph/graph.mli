(** Immutable DNN computation graphs.

    A graph is a DAG of operator nodes; node ids are dense (0..n-1) and the
    id order is a valid topological order (the {!Builder} guarantees this
    by construction and {!create} validates it).  Each node produces one
    feature value; [Conv]/[Dense] nodes additionally own a weight tensor. *)

type node = {
  id : int;
  node_name : string;
  op : Op.t;
  preds : int list;      (** Predecessor node ids, in operator-input order. *)
  block : string option; (** Grouping tag, e.g. ["inception_3a"]. *)
}

type t

val create : node list -> (t, string) result
(** Build and validate a graph: ids dense and increasing, predecessors
    precede their users, shape inference succeeds on every node, and
    exactly the nodes with no predecessors are [Input] nodes. *)

val create_exn : node list -> t
(** Like {!create} but raises [Invalid_argument] with the error text. *)

val node_count : t -> int

val node : t -> int -> node
(** Raises [Invalid_argument] on an out-of-range id. *)

val nodes : t -> node list
(** All nodes in id (= topological) order. *)

val succs : t -> int -> int list
(** Consumer node ids of a node's feature value, in increasing order. *)

val output_shape : t -> int -> Tensor.Shape.t
(** Shape of the feature value produced by the node. *)

val weight_shape : t -> int -> Tensor.Shape.t option
(** Shape of the node's weight tensor, when it has one. *)

val input_shapes : t -> int -> Tensor.Shape.t list
(** Output shapes of the node's predecessors, in [preds] order. *)

val macs : t -> int -> int
(** Multiply-accumulate count of the node. *)

val aux_ops : t -> int -> int
(** Non-MAC arithmetic operations of the node. *)

val total_macs : t -> int

val blocks : t -> string list
(** Distinct block tags in first-appearance order. *)

val nodes_of_block : t -> string -> int list
(** Node ids tagged with the given block, in id order. *)

val weight_bytes : Tensor.Dtype.t -> t -> int
(** Total parameter footprint at the given precision. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line-per-node dump, for debugging and examples. *)
