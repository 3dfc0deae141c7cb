(** Open-loop load generation against a line handler.

    The generator schedules request [i] at [t0 + i/rps] regardless of
    how long earlier requests took — an open loop, so when the server
    falls behind, latency and shed counts grow instead of the offered
    rate silently dropping (the failure mode of closed-loop "send, wait,
    send" generators that hides saturation). *)

val zoo_mix : ?models:int -> unit -> string list
(** A deterministic request mix over the [models] (default 4) smallest
    zoo graphs: each compiled at i8 and i16, plus a [stats] probe.
    Identical on every call, so benches replay the same stream. *)

type result = {
  offered_rps : float;
  duration_s : float;
  sent : int;
  ok : int;
  errors : int;
  shed : int;  (** Structured overloaded/unavailable responses. *)
  divergent : int;
      (** Successes that differed byte-for-byte from the [reference]
          answer — silently corrupted responses, the failure mode the
          chaos bench must prove is zero. *)
  achieved_rps : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

val run :
  handler:(string -> string) -> mix:string list -> rps:float ->
  duration_s:float -> ?threads:int -> ?reference:(string -> string option) ->
  unit -> result
(** Drive [rps * duration_s] requests (round-robin over [mix]) from
    [threads] (default 8) sender threads; latency percentiles are
    measured per request via {!Lcmm_service.Metrics.percentile}.
    [reference] maps a request line to its expected fault-free response
    line; every success is compared against it and mismatches counted
    as [divergent] (requests it maps to [None] are not checked). *)

val result_to_json : result -> Dnn_serial.Json.t

val keeps_up : slo_p99_ms:float -> result -> bool
(** Sustained the offered rate (achieved >= 90% of offered), met the
    p99 SLO, and shed at most 5% of requests. *)

val find_saturation :
  handler:(string -> string) -> mix:string list -> start_rps:float ->
  duration_s:float -> slo_p99_ms:float -> ?threads:int -> ?max_steps:int ->
  unit -> float * result list
(** Double the offered rate from [start_rps] until the handler stops
    {!keeps_up} (or [max_steps], default 10, doublings pass), then
    bisect three rungs between the last sustained rate and the first
    failed one.  Returns the knee — the highest sustained achieved rate
    found, 0 if even [start_rps] failed — and every rung's result in
    the order run.  When all [max_steps] doublings keep up there is no
    bisection and the knee is a lower bound. *)
