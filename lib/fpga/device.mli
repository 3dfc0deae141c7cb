(** FPGA device descriptors.

    The paper evaluates on the Xilinx VU9P (VCU1525/AWS-F1 class part):
    6840 DSP48E2, 2160 BRAM36, 960 URAM, four DDR4 banks at a theoretical
    19.2 GB/s each.  The accelerator streams input features, weights and
    output features concurrently, so each of the three interfaces is
    provisioned one third of the aggregate bandwidth — the paper's
    25.6 GB/s (= 19.2 x 4 / 3) per interface. *)

type t = {
  device_name : string;
  total : Resource.t;             (** Full device resource inventory. *)
  ddr_banks : int;
  ddr_bank_gbs : float;           (** Theoretical GB/s of one bank. *)
  max_freq_mhz : float;           (** Upper bound any design can close. *)
}

val vu9p : t
(** Xilinx Virtex UltraScale+ VU9P. *)

val zu9eg : t
(** Xilinx Zynq UltraScale+ ZU9EG (ZCU102) — a small embedded part, used
    by tests to exercise tight-capacity behavior. *)

val u250 : t
(** Xilinx Alveo U250 — the datacenter successor of the VU9P class, with
    more DSP/URAM and the same four-bank DDR4 shell. *)

val all : t list

val find : string -> t option
(** Case-insensitive lookup by name. *)

val interface_bandwidth : t -> float
(** Bytes/s available to each of the three data interfaces (if/wt/of):
    one third of the total DDR bandwidth. *)

val ddr_channels : t -> int
(** Number of independently schedulable DDR channels (the device's DDR
    bank count, at least 1).  The runtime's per-channel bandwidth model
    stripes the total DDR bandwidth equally across them; planning with 1
    channel recovers the aggregate fluid-bus model exactly. *)

val sram_bytes : t -> int
(** Total on-chip memory capacity in bytes (BRAM + URAM). *)

val pp : Format.formatter -> t -> unit
