(** Numeric precisions supported by the accelerator model.

    The paper evaluates 8- and 16-bit fixed point and 32-bit floating
    point.  A precision determines the byte width of every tensor element
    and the DSP cost of one multiply-accumulate on Xilinx UltraScale+
    devices (one DSP48E2 per fixed-point MAC, five per fp32 MAC, cf.
    paper section 4.1). *)

type t =
  | I8   (** 8-bit fixed point *)
  | I16  (** 16-bit fixed point *)
  | F32  (** 32-bit IEEE-754 floating point *)

val all : t list
(** Every precision, in the order the paper's tables list them. *)

val bytes : t -> int
(** Storage size of one element, in bytes. *)

val dsp_cost_per_mac : t -> float
(** DSP slices consumed by one multiply-accumulate unit.  8-bit MACs pack
    two per DSP48E2 (0.5); 16-bit needs one; fp32 averages 3.5 with
    logic-assisted multipliers (the fabric share shows up as CLB usage
    instead). *)

val to_string : t -> string
(** ["i8"], ["i16"] or ["f32"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}; also accepts ["8"], ["16"], ["32"],
    ["int8"], ["fp32"], ["float32"] spellings (case-insensitive). *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val compare : t -> t -> int
