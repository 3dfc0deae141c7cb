(** DNN operators and their shape/cost semantics.

    The operator set covers what the paper's three benchmark models need:
    convolutions (with stride, padding, grouping), pooling, element-wise
    addition (ResNet shortcuts), channel concatenation (inception blocks)
    and dense layers.  Activation functions are treated as fused into the
    producing operator, as in the accelerator designs the paper builds on:
    they change neither tensor shapes nor off-chip traffic. *)

type padding =
  | Valid            (** No padding. *)
  | Same             (** Output spatial size = ceil(input / stride). *)
  | Explicit of int  (** Symmetric padding of the given amount. *)

type conv = {
  out_channels : int;
  kernel : int * int;   (** (height, width) *)
  stride : int * int;   (** (vertical, horizontal) *)
  padding : padding;
  groups : int;         (** 1 for ordinary convolutions. *)
}

type pool_kind = Max | Avg

type pool = {
  pool_kind : pool_kind;
  pool_kernel : int * int;
  pool_stride : int * int;
  pool_padding : padding;
  global : bool;  (** Global pooling ignores kernel/stride/padding. *)
}

type t =
  | Input of { channels : int; height : int; width : int }
      (** Graph entry; produces the image tensor. *)
  | Conv of conv
  | Pool of pool
  | Eltwise_add       (** Element-wise sum of all inputs (same shapes). *)
  | Concat            (** Channel-wise concatenation. *)
  | Upsample of { factor : int }
      (** Nearest-neighbour spatial upsampling (decoder networks). *)
  | Dense of { out_features : int }

val output_shape : t -> Tensor.Shape.t list -> (Tensor.Shape.t, string) result
(** Shape of the operator's output given the shapes of its inputs, or a
    human-readable error when the inputs are invalid for the operator. *)

val weight_shape : t -> Tensor.Shape.t list -> Tensor.Shape.t option
(** Shape of the operator's weight tensor ([Conv] and [Dense]), given its
    input shapes; [None] for weight-less operators or invalid inputs. *)

val macs : t -> Tensor.Shape.t list -> int
(** Multiply-accumulate count of one execution ([Conv]/[Dense]); 0 for
    operators that run on auxiliary units. *)

val aux_ops : t -> Tensor.Shape.t list -> int
(** Non-MAC arithmetic (pool comparisons/adds, element-wise additions);
    used by the roofline's operation count alongside [2 * macs]. *)

val name : t -> string
(** Short operator mnemonic, e.g. ["conv3x3/2"]. *)

val pp : Format.formatter -> t -> unit
