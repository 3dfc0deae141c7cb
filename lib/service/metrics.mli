(** Service-level metrics: per-operation request counts, error counts
    and wall-clock latency aggregates, including tail percentiles over a
    bounded latency reservoir.

    Thread-safe; the [stats] protocol request snapshots these together
    with the cache counters and the pool occupancy. *)

val percentile : float array -> float -> float
(** [percentile sample q] is the [q]-quantile ([0. <= q <= 1.]) of
    [sample] by linear interpolation between order statistics (the
    "type 7" estimator): [percentile xs 0.5] is the median,
    [percentile xs 0.99] the p99.  The input is copied, not mutated.
    [q] is clamped to [0, 1]; an empty sample yields [nan]. *)

module Reservoir : sig
  (** A bounded uniform sample of an unbounded stream (Vitter's
      algorithm R): every value seen so far has equal probability of
      being in the reservoir, so percentiles over the reservoir estimate
      percentiles of the whole stream in O(capacity) memory.  Draws come
      from a seeded PRNG — two reservoirs fed the same stream with the
      same seed hold identical samples.  Not thread-safe on its own;
      {!Metrics.record} serializes access under the registry mutex. *)

  type t

  val create : ?capacity:int -> ?seed:int -> unit -> t
  (** Default capacity 1024.  Raises [Invalid_argument] when
      [capacity < 1]. *)

  val add : t -> float -> unit

  val count : t -> int
  (** Values seen (not values held). *)

  val sample : t -> float array
  (** The values currently held, in insertion/replacement order. *)

  val percentile : t -> float -> float
  (** {!Metrics.percentile} over {!sample}. *)
end

type t

val create : unit -> t

val record : t -> op:string -> ok:bool -> seconds:float -> unit

val snapshot : t -> Dnn_serial.Json.t
(** [{"requests": N, "errors": N, "by_op": {op: {"count", "errors",
    "total_ms", "max_ms", "p50_ms", "p99_ms", "p999_ms"}}}].
    Percentiles are estimated over the op's latency reservoir.
    Operations are listed alphabetically so the rendering is
    deterministic. *)
