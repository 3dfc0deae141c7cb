(** DDR bandwidth arbitration between tenants.

    The board exposes [Fpga.Device.ddr_channels] independently
    schedulable DRAM channels, each an equal stripe of the aggregate
    bandwidth; the engine arbitrates each channel separately.  When
    several tenants have a transfer on the same channel at once, the
    arbiter decides what fraction of that channel's stripe each gets.
    Rates are fractions of the full isolated bandwidth (the one every
    tenant's load times were computed against), so a transfer running at
    rate [r] takes [1/r] times its isolated duration.

    The pre-channel aggregate model is exactly the 1-channel special
    case: with one channel the stripe is the whole bandwidth and the
    engine makes a single arbitration call over all pending transfers,
    so every 1-channel run is float-for-float the old fluid-bus run. *)

type t =
  | Fair_share  (** Every active transfer gets an equal bandwidth share. *)
  | Priority
      (** Strict priority: the active transfer of the highest-priority
          tenant (lowest priority number, ties to the lowest job key)
          gets the full bandwidth; the rest stall until it finishes. *)

val to_string : t -> string

val of_string : string -> t option
(** Accepts ["fair"] (also ["fair-share"]/["fair_share"]) and
    ["priority"]. *)

val all : t list

val preferred : Transfer.t -> Transfer.t -> bool
(** [preferred c best]: transfer [c] takes a [Priority] channel from
    [best] (lower priority number, ties to the lower key).  Reads the
    transfers' own fields and allocates nothing. *)

val share : t -> contenders:int -> winner:bool -> float
(** The bandwidth fraction one of [contenders] contenders gets:
    [1/contenders] under [Fair_share]; under [Priority] 1 for the
    {!preferred} one ([winner]) and 0 for the rest.  The engine tables
    it once per run, for every contender count its tenants allow. *)

val rates : t -> Transfer.t list -> (int * float) list
(** [rates t jobs] assigns a bandwidth fraction to each contending
    transfer, keyed by its [key], by {!share}, the winner being the
    contender no later one is {!preferred} to.  The fractions sum to 1
    when [jobs] is non-empty (the bus is work-conserving); the empty
    list maps to the empty list. *)
