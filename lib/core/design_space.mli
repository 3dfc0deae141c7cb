(** The per-block allocation design space (paper Fig. 2b).

    Inception-v4 has 14 inception blocks; choosing, for each block,
    whether its tensors live on or off chip spans 2^14 = 16384 design
    points.  Each point is evaluated exactly: SRAM demand is the sum of
    the chosen blocks' buffer demands (no cross-block sharing — this is
    the naive space LCMM improves on), latency is the exact Eq. 1 total.
    The paper's observation reproduces here: more memory does not imply
    more performance, and many near-capacity points are far from the
    frontier. *)

type point = {
  mask : int;            (** Bit i set = block i's tensors on chip. *)
  sram_bytes : int;
  latency : float;
  tops : float;
}

val block_items :
  Metric.t -> block:string -> Metric.item list
(** Pinnable items whose producing node carries the given block tag. *)

val sweep :
  Metric.t -> dtype:Tensor.Dtype.t -> total_macs:int ->
  blocks:(string * Metric.item list) list -> point list
(** Evaluate every subset of the given blocks (2^n points — keep n small,
    the paper's case is 14).  Raises [Invalid_argument] beyond 20
    blocks. *)

val pareto : point list -> point list
(** Points not dominated in (sram_bytes, latency), sorted by size. *)
