(** Systolic processing-element array model, in the style of the DAC'17
    systolic-array generator the paper builds on ([18]).

    The array unrolls three loop dimensions: output channels ([tm_unroll]),
    input channels ([tn_unroll]) and spatial positions ([tsp_unroll]); it
    sustains [tm*tn*tsp] MACs per cycle when layer dimensions divide the
    unroll factors, and pads (loses efficiency) when they do not. *)

type t = private {
  tm_unroll : int;   (** Output-channel unroll. *)
  tn_unroll : int;   (** Input-channel unroll. *)
  tsp_unroll : int;  (** Spatial (output pixel) unroll. *)
}

val make : tm_unroll:int -> tn_unroll:int -> tsp_unroll:int -> t
(** Raises [Invalid_argument] on non-positive factors. *)

val macs_per_cycle : t -> int

val dsp_usage : Tensor.Dtype.t -> t -> int
(** DSP slices consumed: [ceil (macs_per_cycle * Dtype.dsp_cost_per_mac)]. *)

val lut_usage : Tensor.Dtype.t -> t -> int
(** CLB LUT estimate: interconnect and accumulator logic per PE plus a
    fixed control plane. *)

val conv_cycles : t -> m:int -> c:int -> hw:int -> k2:int -> int
(** Cycles to run a convolution with [m] output channels, [c] input
    channels (per group already divided out), [hw] output pixels and
    [k2 = kh*kw] kernel positions: padded-loop product over the array. *)

val default_for : Fpga.Device.t -> Tensor.Dtype.t -> dsp_fraction:float -> t
(** Largest array of the model family fitting the given fraction of the
    device's DSP budget.  The family fixes [tm=32], picks [tn] from
    (32, 16, 8) and derives [tsp]; this mirrors the paper's reported 83 %
    (5632/6840) DSP utilization at fixed-point precisions on the VU9P.
    Raises [Invalid_argument] if even the smallest array does not fit. *)

val pp : Format.formatter -> t -> unit
