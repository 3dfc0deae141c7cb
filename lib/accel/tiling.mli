(** Two-level loop tiling of the accelerator (the paper's Fig. 1 outer /
    middle loops).

    One hardware tile configuration is chosen per design (tile buffers are
    physical RAM): output-channel tile [tm], input-channel tile [tn] and a
    [th] x [tw] output spatial tile.  A layer whose dimensions exceed the
    tile is processed in multiple trips, re-streaming input features once
    per output-channel group and weights once per spatial tile — the
    uniform-memory-management traffic model of the designs the paper
    baselines against. *)

type t = private {
  tm : int;
  tn : int;
  th : int;
  tw : int;
}

val make : tm:int -> tn:int -> th:int -> tw:int -> t
(** Raises [Invalid_argument] on non-positive dimensions. *)

val buffer_bytes : Tensor.Dtype.t -> t -> int
(** Total tile-buffer footprint: double-buffered input, weight and output
    tiles. *)

val bram_blocks : Tensor.Dtype.t -> t -> int
(** BRAM36 blocks implementing the tile buffers, counting one bank per
    parallel port at the block granularity of {!Fpga.Resource}. *)

type trips = {
  if_trips : int;    (** Times the layer's input is streamed from DDR. *)
  wt_trips : int;    (** Times the layer's weights are streamed. *)
  halo : float;      (** Input overread factor from tile halos, >= 1. *)
}

val trips :
  t -> out_channels:int -> out_h:int -> out_w:int -> kernel:int * int -> trips
(** Trip counts for a convolution-like layer of the given output geometry.
    A layer fitting entirely in one tile has [if_trips = wt_trips = 1] and
    [halo = 1.0]. *)

type transactions = {
  if_txn : int;  (** Input tile loads (DDR transactions). *)
  wt_txn : int;  (** Weight tile loads. *)
  of_txn : int;  (** Output tile stores. *)
}

val transactions :
  t -> out_channels:int -> in_channels:int -> out_h:int -> out_w:int ->
  transactions
(** DDR transaction counts of the outer tile loops: one input and one
    weight tile load per (output-channel group x spatial tile x
    input-channel group) iteration, one output store per completed output
    tile. *)

val pp : Format.formatter -> t -> unit
