(** Seeded, deterministic board-fault specification.

    Describes the faults injected into a runtime co-simulation as plain
    data — DDR bandwidth droop windows, transient transfer stalls and
    failures, SRAM bank losses and hard tenant aborts — plus the seed
    every stochastic draw derives from, so a faulty run replays
    bit-identically.

    The textual grammar (the CLI's [--faults SPEC]) is a comma-separated
    clause list; times are milliseconds of simulated time:

    {v
    seed=N                    derivation seed for stochastic draws
    droop@T:DUR:FACTOR        DDR bandwidth scaled by FACTOR in [T, T+DUR)
    stall:PROB:MS             transfer-start stall probability / mean stall
    fail:PROB                 per-attempt transient transfer failure
    retries=N                 retry budget before a failing transfer aborts
    backoff=BASE:CAP          exponential retry backoff base / cap (ms)
    bankloss@T:BYTES[:TEN]    SRAM bank loss for tenant TEN (default 0)
    abort@T:TEN               hard tenant abort
    v}

    Transport clauses describe faults on the serving tier's
    router->shard connections (the CLI's [lcmm tier --chaos SPEC]); they
    are inert for the board runtime and probabilities are per connection
    attempt:

    {v
    delay:PROB:MS             added response latency (jittered mean MS)
    hang:PROB                 shard accepts the request, never answers
    trunc:PROB                response line cut short mid-byte
    corrupt:PROB              one response byte flipped
    reset:PROB                connection reset before the response
    slowshard@IDX:F           shard IDX serves F x slower (F >= 1)
    v}

    Byte counts accept [k]/[K] (KiB) and [m]/[M] (MiB) suffixes. *)

type droop = {
  droop_start : float;    (** Seconds. *)
  droop_duration : float; (** Seconds, positive. *)
  droop_factor : float;   (** (0, 1]: surviving fraction of bandwidth. *)
}

type bank_loss = {
  loss_at : float;   (** Seconds. *)
  loss_bytes : int;
  loss_tenant : int; (** Index into the co-simulated admitted set. *)
}

type abort_event = { abort_at : float; abort_tenant : int }

type slow_shard = {
  slow_index : int;    (** Shard index in sorted ring-member order. *)
  slow_factor : float; (** >= 1: multiplier on observed service time. *)
}

type t = {
  seed : int;
  droops : droop list;
  stall_prob : float;
  stall_seconds : float; (** Mean stall at a transfer start. *)
  fail_prob : float;     (** Per-attempt transient failure probability. *)
  max_retries : int;
  backoff_base : float;  (** Seconds. *)
  backoff_cap : float;   (** Seconds. *)
  bank_losses : bank_loss list;
  aborts : abort_event list;
  t_delay_prob : float;
  t_delay_seconds : float; (** Mean injected response delay, seconds. *)
  t_hang_prob : float;
  t_trunc_prob : float;
  t_corrupt_prob : float;
  t_reset_prob : float;
  slow_shards : slow_shard list;
}

val empty : t
(** No faults: seed 0, default retry budget (3) and backoff
    (0.05 ms base, 2 ms cap). *)

val has_board_faults : t -> bool
(** True when a board-fault source (droop, stall, fail, bankloss,
    abort) is active.  A run-op spec without any is normalised away so
    the no-fault simulation path stays bit-identical. *)

val has_transport_faults : t -> bool
(** True when a transport-fault source (delay, hang, trunc, corrupt,
    reset, slowshard) is active.  A tier spec without any leaves the
    router->shard path untouched (chaos-off byte identity). *)

val scale_transport : t -> float -> t
(** Scale every transport probability by the factor (clamped to [0,1]);
    delay magnitude and slowshard factors are unchanged.  The chaos
    bench's intensity ladder. *)

val of_string : string -> (t, string) result
(** Parse the clause grammar above.  The empty string is [empty].
    Errors name the offending clause and its character position, e.g.
    [clause 2 ("hang:2") at char 8: hang probability 2 outside [0,1]]. *)

val to_string : t -> string
(** Canonical rendering; round-trips through {!of_string}. *)

val to_json : t -> Dnn_serial.Json.t
