(** Seeded transport-fault decisions for the router->shard path.

    Wraps {!Fault.Injector}'s counter-based draws in a per-request-key
    discipline: every action is a pure function of (spec seed, route
    digest, occurrence number, attempt), so a request stream under a
    spec replays the identical fault sequence regardless of wall clock
    or thread interleaving.  The tier consults it on every
    digest-addressed shard call; stats broadcasts and drain flushes
    carry no key and are never faulted. *)

type t

val create : Fault.Spec.t -> t option
(** [None] when the spec has no transport faults
    ({!Fault.Spec.has_transport_faults}) — the chaos-off tier carries
    no chaos state at all, keeping its output byte-identical. *)

val spec : t -> Fault.Spec.t

val key : t -> digest:string -> int
(** The chaos key for the next occurrence of [digest] (each call
    advances the occurrence counter).  Taken once per routed request;
    all of the request's probes, attempts and hedges share it. *)

val action : t -> key:int -> attempt:int -> Fault.Injector.transport_action
(** The fault injected on physical call [attempt] of request [key];
    counted at draw time so counters replay with the draws. *)

val mangle :
  t -> key:int -> attempt:int -> action:Fault.Injector.transport_action ->
  string -> string
(** Apply a [Trunc]/[Corrupt] action's damage to a response line. *)

val slow_factor : t -> shard:int -> float
(** Service-time multiplier for shard [shard] (>= 1; counted when
    above 1). *)

val counter_list : t -> (string * int) list
(** Injected-fault counters, deterministic under a deterministic
    request stream. *)

val counters_json : t -> Dnn_serial.Json.t
(** {!counter_list} plus the canonical spec string. *)
