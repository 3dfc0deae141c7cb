(** Tensor substrate: precisions, shapes, descriptors.

    This module is the library entry point.  {!Dtype} and {!Shape} are
    re-exported here; the descriptor type below names a shaped, typed
    piece of data (a feature map or a weight tensor).  Element precision
    is a whole-design property in this accelerator model, so it is
    supplied where sizes are needed rather than stored per tensor. *)

module Dtype = Dtype
module Shape = Shape

type kind =
  | Feature_map  (** Activation data produced by a node. *)
  | Weight       (** Parameters of a node, constant across inferences. *)

type t = private {
  id : int;        (** Unique within one graph; assigned by the graph. *)
  name : string;   (** Human-readable, e.g. ["conv3_1:out"]. *)
  kind : kind;
  shape : Shape.t;
}
(** A tensor descriptor. *)

val make : id:int -> name:string -> kind:kind -> shape:Shape.t -> t
(** Build a descriptor.  Raises [Invalid_argument] on a negative id or an
    empty name. *)

val size_bytes : Dtype.t -> t -> int
(** Storage footprint at the given precision. *)

val is_weight : t -> bool

val equal : t -> t -> bool
(** Identity: same [id] and [kind]. *)

val pp : Format.formatter -> t -> unit
