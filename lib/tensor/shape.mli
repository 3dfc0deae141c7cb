(** Tensor shapes.

    The accelerator model works on single-image inference (batch = 1), the
    setting of the paper's latency-oriented evaluation.  Three shape
    families cover everything the graph IR produces: feature maps (CHW),
    convolution filters (OIHW) and flat vectors (dense layers, biases). *)

type feature = private {
  channels : int;
  height : int;
  width : int;
}
(** A feature map: [channels]×[height]×[width], all positive. *)

type filter = private {
  out_channels : int;
  in_channels : int;
  kernel_h : int;
  kernel_w : int;
}
(** A convolution weight tensor.  [in_channels] is per-group. *)

type t =
  | Feature of feature
  | Filter of filter
  | Vector of int  (** Flat length, positive. *)

val feature : channels:int -> height:int -> width:int -> t
(** Build a feature shape.  Raises [Invalid_argument] on non-positive
    dimensions. *)

val filter :
  out_channels:int -> in_channels:int -> kernel_h:int -> kernel_w:int -> t
(** Build a filter shape.  Raises [Invalid_argument] on non-positive
    dimensions. *)

val vector : int -> t
(** Build a vector shape.  Raises [Invalid_argument] on non-positive
    length. *)

val elements : t -> int
(** Number of scalar elements. *)

val size_bytes : Dtype.t -> t -> int
(** Storage footprint at the given precision. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** E.g. ["64x56x56"], ["256x64x3x3"], ["[1000]"]. *)

val to_string : t -> string

val as_feature : t -> feature option
(** [Some f] when the shape is a feature map. *)
