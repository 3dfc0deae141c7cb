(** A consecutive-failure circuit breaker, shared by the service's
    per-op breakers ({!Engine}) and the tier's per-shard breakers.

    [threshold] counted failures in a row trip the circuit open; while
    open every call is shed.  Once [cooldown_s] has passed, the next
    {!admit} lets exactly one probe through (half-open) and sheds the
    rest until {!record} reports the probe's outcome: success closes
    the circuit, failure re-opens it for a fresh cooldown.

    The breaker is a pure state machine: it takes no lock and reads no
    clock.  The caller serialises access under its own lock and passes
    [now] (seconds, any monotone origin), so tests can drive it with a
    fake clock. *)

type t

val create : threshold:int -> cooldown_s:float -> t
(** A closed breaker.  Raises [Invalid_argument] for a threshold below
    1 or a non-positive cooldown. *)

type admission =
  | Pass  (** Closed: run the call. *)
  | Probe  (** The cooldown is over: run the call as the one probe. *)
  | Shed_open of float  (** Open: shed; seconds of cooldown left. *)
  | Shed_probing  (** Half-open with the probe in flight: shed. *)

val admit : t -> now:float -> admission
(** Decide one call.  Both shed outcomes count in {!shed}.  A call
    admitted as [Probe] must report back through {!record}, or the
    circuit stays half-open. *)

val record : t -> now:float -> failed:bool -> unit
(** Report an admitted call's outcome.  Success closes the circuit
    whatever its state and clears the streak — also the late success of
    a call admitted before the circuit tripped.  A failure extends the
    streak; it trips the circuit when it reaches the threshold or when
    it is the probe's.  A failure while the circuit is open (a call
    admitted before the trip) is counted but does not extend the
    cooldown. *)

val state : t -> [ `Closed | `Open | `Half_open ]
(** The raw state: a circuit whose cooldown has expired stays [`Open]
    until the next {!admit} turns it half-open. *)

val cooldown_left : t -> now:float -> float
(** Seconds until an open circuit admits its probe; 0 when the circuit
    is not open or the cooldown has expired. *)

val failures : t -> int
(** Consecutive counted failures. *)

val trips : t -> int
(** Times the circuit has opened. *)

val shed : t -> int
(** Calls shed by {!admit}. *)
