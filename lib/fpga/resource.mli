(** FPGA resource vectors.

    Counts are in physical primitives: DSP slices, BRAM36 blocks (36 Kib),
    URAM blocks (288 Kib) and CLB LUTs.  Vectors support the arithmetic
    the design-space exploration needs (addition, fit tests, utilization
    ratios against a device's totals). *)

type t = {
  dsp : int;
  bram36 : int;
  uram : int;
  luts : int;
}

val make : ?dsp:int -> ?bram36:int -> ?uram:int -> ?luts:int -> unit -> t
(** Missing components default to 0.  Raises [Invalid_argument] on
    negative counts. *)

val add : t -> t -> t

val scale : int -> t -> t

val fits : t -> within:t -> bool
(** Every component of the first vector is <= the corresponding component
    of [within]. *)

val utilization : t -> total:t -> (string * float) list
(** Per-component utilization ratios in [0, +inf), as
    [("dsp", r); ("bram", r); ("uram", r); ("luts", r)].  Components whose
    total is 0 report 0. *)

val bram36_bytes : int
(** Usable data bytes of one BRAM36 block (4 KiB of 36 Kib are parity). *)

val uram_bytes : int
(** Usable data bytes of one URAM block (32 KiB). *)

val sram_bytes : t -> int
(** BRAM + URAM capacity of the vector, in bytes. *)

val pp : Format.formatter -> t -> unit
