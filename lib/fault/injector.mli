(** Deterministic fault derivation from a {!Spec.t}.

    Every stochastic decision is a pure hash of (seed, transfer key,
    purpose) — a counter-based RNG rather than a stateful stream — so an
    outcome never depends on the order the event loop asks for it, and
    identical (spec, workload) pairs replay bit-identically. *)

type event =
  | Bank_loss of { at : float; tenant : int; bytes : int }
  | Abort of { at : float; tenant : int }

type t

val create : Spec.t -> t

val spec : t -> Spec.t

val events : t -> event list
(** Discrete fault timeline (bank losses and aborts), sorted by time,
    stable on spec order. *)

val event_time : event -> float

val max_retries : t -> int

val stall_seconds : t -> key:int -> float
(** Stall injected when transfer [key] reaches the head of its channel;
    0 when the seeded draw misses.  Jittered to 0.5–1.5x the mean. *)

val planned_failures : t -> key:int -> int
(** How many consecutive attempts of transfer [key] fail before one
    succeeds (geometric in the per-attempt failure probability), capped
    one past the retry budget: a cap-valued draw exhausts the retries
    and aborts the owning tenant. *)

val capped_backoff : base:float -> cap:float -> attempt:int -> float
(** The one retry schedule: [min (base *. 2 ** attempt) cap] before
    retry number [attempt] (0-based).  Board transfers jitter it
    ({!backoff_seconds}); the serving tier's router uses it as is. *)

val backoff_seconds : t -> key:int -> attempt:int -> float
(** {!capped_backoff} over the spec's [backoff=BASE:CAP] with seeded
    jitter (1x–2x nominal) before retry number [attempt] (0-based). *)

val droop_factor : t -> now:float -> float
(** Effective bandwidth multiplier at [now]; overlapping droop windows
    take the most severe factor. *)

val next_droop_boundary : t -> now:float -> float
(** Next instant after [now] at which {!droop_factor} can change;
    [infinity] when none remain. *)

(** {1 Transport faults (serving tier)} *)

type transport_action = Pass | Delay of float | Hang | Trunc | Corrupt | Reset

val transport_action : t -> key:int -> attempt:int -> transport_action
(** The fault (if any) injected on router-level attempt [attempt] of
    the request identified by [key].  Precedence hard-to-soft: reset,
    hang, trunc, corrupt, delay — each family draws from its own salt,
    so scaling one probability never flips another family's outcome.
    [Delay] carries jittered seconds (0.5-1.5x the configured mean). *)

val mangle_line : t -> key:int -> attempt:int -> action:transport_action
  -> string -> string
(** Apply [Trunc] (cut to a seeded strict prefix) or [Corrupt] (flip
    one seeded byte) to a response line; other actions return the line
    unchanged. *)

val slow_factor : t -> shard:int -> float
(** Deterministic service-time multiplier for shard [shard] (>= 1);
    overlapping slowshard clauses take the worst. *)
