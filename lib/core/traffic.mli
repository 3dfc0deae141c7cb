(** DDR traffic and energy accounting for an allocation (an extension
    beyond the paper, quantifying the efficiency claim behind its
    motivation: off-chip transfers dominate both time and energy).

    Traffic counts the bytes each interface moves per inference under a
    given allocation: pinned feature values move nothing, pinned weights
    load once (prefetch), streamed tensors pay their tile reloads.  The
    energy model charges per-byte DDR and SRAM costs and a per-MAC
    compute cost with published order-of-magnitude constants. *)

type t = {
  if_bytes : int;   (** Input-feature DDR reads. *)
  wt_bytes : int;   (** Weight DDR reads (streaming + one-time loads). *)
  of_bytes : int;   (** Output-feature DDR writes. *)
}

val total_bytes : t -> int

val if_stream_bytes : on_chip:Metric.Item_set.t -> Accel.Latency.profile -> int
(** DDR bytes the node's off-chip feature inputs stream (incl. tile
    reloads). *)

val of_allocation : Metric.t -> on_chip:Metric.Item_set.t -> t
(** Per-inference DDR traffic under the allocation. *)

val umm : Metric.t -> t
(** Traffic with everything streamed. *)

type energy = {
  ddr_joules : float;
  sram_joules : float;
  compute_joules : float;
}

val total_joules : energy -> float

type energy_model = {
  ddr_pj_per_byte : float;    (** ~160 pJ/byte for DDR4 access+IO. *)
  sram_pj_per_byte : float;   (** ~1 pJ/byte for on-chip SRAM. *)
  mac_pj : float;             (** Per-MAC datapath energy. *)
}

val default_energy_model : Tensor.Dtype.t -> energy_model
(** Order-of-magnitude constants per precision (larger MACs cost more). *)

val energy_of_allocation :
  ?model:energy_model -> Metric.t -> dtype:Tensor.Dtype.t ->
  on_chip:Metric.Item_set.t -> energy
(** Energy per inference: DDR traffic at the DDR rate, the same tensor
    volumes re-read from SRAM where pinned, and the MAC datapath. *)
