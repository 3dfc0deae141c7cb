(** A complete accelerator design point.

    Bundles the device, numeric precision, PE array, tile configuration,
    clock frequency and DDR efficiency — everything the latency model and
    the simulator need.  Two design styles exist only in the frequency
    table: LCMM designs close timing slightly lower than UMM ones because
    of the extra buffer multiplexing (paper Table 1: 190 vs 180 MHz at
    fixed point). *)

type style = Umm | Lcmm

type t = {
  device : Fpga.Device.t;
  dtype : Tensor.Dtype.t;
  pe : Pe_array.t;
  tile : Tiling.t;
  freq_mhz : float;
  ddr_efficiency : float;
      (** Achieved / theoretical DDR bandwidth, in (0, 1]. *)
  burst_overhead : float;
      (** Fixed seconds per DDR transaction (AXI burst setup + DRAM row
          activation).  Uniform tiled streaming issues one transaction
          per tile buffer load/store, so small tiles pay it thousands of
          times per inference; on-chip tensor buffers avoid it. *)
  aux_ops_per_cycle : int;
      (** Throughput of the scalar/vector side units running pooling and
          element-wise layers. *)
  fused_eltwise : bool;
      (** Fuse element-wise additions into the producing layer's output
          drain: the freshly computed branch is consumed on the fly, so
          neither its write-back nor its re-read touches DDR (the other,
          older input still streams).  Off by default — the UMM baseline
          of the paper streams adds like any layer. *)
}

val make :
  ?device:Fpga.Device.t -> ?ddr_efficiency:float -> ?burst_overhead:float ->
  ?dsp_fraction:float -> ?tile:Tiling.t -> ?freq_mhz:float ->
  ?fused_eltwise:bool -> style:style -> Tensor.Dtype.t -> t
(** Build a design point with the defaults used throughout the
    reproduction: VU9P, 83 % DSP budget, the default PE array for the
    precision, a 32x64x28x28 tile, the table frequency and 256 auxiliary
    ops per cycle. *)

val interface_bandwidth : t -> float
(** Effective bytes/s of each of the three DDR interfaces. *)

val peak_ops : t -> float
(** Peak arithmetic rate in ops/s (2 ops per MAC). *)

val compute_resources : t -> Fpga.Resource.t
(** DSP + LUT + tile-buffer BRAM of the design, before tensor buffers. *)

val sram_budget_bytes : t -> int
(** On-chip bytes available to LCMM tensor buffers: device SRAM minus the
    tile buffers, derated by a routability cap of 90 %. *)

val pp : Format.formatter -> t -> unit
