(** One backend shard as the router sees it: a supervised worker
    process (or in-process handler) behind an in-flight gate and a
    transport circuit breaker ({!Lcmm_service.Breaker}, the same state
    machine the service's per-op breakers use).

    Process shards speak the NDJSON protocol over a Unix socket.  The
    supervisor owns the child's whole lifecycle: it spawns it with
    stdio detached (stdout must not pollute the tier's own protocol
    stream), reaps and respawns it in place when it dies, and on
    {!stop} terminates it (SIGTERM, then SIGKILL after a 2 s grace
    window), reaps it and removes the socket file — no leaked sockets
    or orphan processes survive the tier.

    Health is tri-state.  [`Down] while the breaker's circuit is open;
    [`Suspect] once the cooldown expires with recovery unproven (the
    half-open probation) or while failures accumulate under a closed
    circuit; [`Up] otherwise.  A shard recovers through the cooldown
    plus one successful probe call. *)

type t

type error =
  | Overloaded of string
      (** Shed without an attempt: the shard already has [max_inflight]
          calls in flight and its circuit is closed. *)
  | Unavailable of string
      (** Shed without an attempt: the shard's circuit is open after
          repeated transport failures, or half-open with its one probe
          call in flight (whether or not the in-flight gate is full). *)
  | Transport of string
      (** The call was attempted (twice — one retry on a fresh
          connection) and failed. *)

val error_message : error -> string

val local :
  name:string -> ?max_inflight:int -> ?breaker_threshold:int ->
  ?breaker_cooldown_s:float -> (string -> string) -> t
(** An in-process shard over a line handler (tests, single-process
    tiers).  [max_inflight] defaults to 64; the breaker to 3
    consecutive failures / 2 s cooldown.  Raises [Invalid_argument]
    for a threshold below 1 or a non-positive cooldown. *)

val spawn :
  name:string -> socket:string -> ?max_inflight:int ->
  ?breaker_threshold:int -> string array -> (t, string) result
(** [spawn ~name ~socket argv] starts [argv] (argv.(0) is the program
    path) as a child process, expecting it to bind and serve [socket];
    waits up to 10 s for the socket to come up.  A stale socket file is
    removed before the child starts.  The breaker cools down for the
    default 2 s.  Raises [Invalid_argument] when [max_inflight] < 1,
    before starting anything. *)

val name : t -> string

val call : ?timeout_s:float -> t -> string -> (string, error) result
(** Send one request line, wait for the one response line (returned
    without its trailing newline).  [timeout_s] bounds the reply wait
    (SO_RCVTIMEO on the socket): a hung shard surfaces as a transport
    timeout instead of wedging the caller, and the timed-out connection
    is discarded, never pooled.  In-process shards cannot be
    interrupted and ignore the timeout.  [breaker_threshold]
    consecutive transport failures open the circuit for
    [breaker_cooldown_s]; then exactly one probe call is admitted —
    concurrent calls are shed as [Unavailable] until it returns — and
    its outcome closes or re-opens the circuit.  Every admitted call
    reports its outcome when it returns, even after the circuit tripped
    under it: a late success closes the circuit, a late failure is
    counted without extending the cooldown.  The in-flight gate is
    checked first and a call at a full gate never reaches the breaker:
    it is [Unavailable] while the circuit is not closed and
    [Overloaded] otherwise.  A dead child is reaped and respawned
    transparently on the next call. *)

val penalize : t -> unit
(** Charge the breaker with a failure for a call that succeeded at the
    transport level but whose content the router rejected (corrupted,
    truncated or mismatched reply).  Does not double-count the call. *)

val state : t -> [ `Up | `Suspect | `Down ]
(** Tri-state health (see the module doc). *)

val stats_json : t -> Dnn_serial.Json.t

val stop : t -> unit
(** Terminate and reap the child, remove its socket file.  No-op for
    local shards.  Idempotent. *)
