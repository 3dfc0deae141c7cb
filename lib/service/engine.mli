(** The plan-compilation engine: request handling over the cache, the
    worker pool and the metrics registry.

    [compile] answers with the full UMM-vs-LCMM design comparison
    ({!Lcmm.Framework.compare_staged}, which is what
    {!Lcmm.Framework.compare_designs} runs); [simulate] additionally
    runs the discrete-event simulator on the plan.  Each zoo model
    keeps its DSE designs per (dtype, device) and its prepared stage
    per design and {!Lcmm.Framework.prepare_options}, both bounded, so
    a request that changes only options the prepare stage does not read
    reruns neither (a prepared stage is kept for a request that sets
    such an option); inline graphs run both on every miss.  Both are cached under
    their {!Cache_key} digest; [stats] and [models] are cheap and
    uncached.  [batch] fans its sub-requests out across the pool and
    answers in request order. *)

type t

val create :
  ?cache:Plan_cache.t -> ?pool:Lcmm.Pool.t -> ?deadline_ms:float -> ?breaker_threshold:int ->
  ?breaker_cooldown_ms:float -> unit -> t
(** Missing components are created with their defaults (256-entry
    in-memory cache, [Lcmm.Pool.create ()] sized pool).  [deadline_ms]
    is the default per-request compute budget applied when a request
    carries no ["deadline_ms"] of its own; omitted = wait forever.
    Raises [Invalid_argument] when non-positive.

    Each compute op ([compile], [simulate], [run]) sits behind its own
    {!Breaker}: [breaker_threshold] (default 5) consecutive
    service-side failures — internal errors or deadline misses, never
    client mistakes — trip the op open, and until
    [breaker_cooldown_ms] (default 1000) has passed every request for
    it is shed immediately with a structured ["unavailable"] error.
    After the cooldown exactly one probe request is admitted (others
    are shed as "half-open, probe in flight"); its outcome closes or
    re-opens the circuit.  [stats] and [models] are never shed.
    Raises [Invalid_argument] for a threshold below 1 or a
    non-positive cooldown. *)

type cache_status = Hit | Miss | Uncached

type response = {
  id : Dnn_serial.Json.t option;
  op : string;
  cache : cache_status;
  elapsed_s : float;
  outcome : (Dnn_serial.Json.t, string) result;
  subs : response list;  (** Sub-responses of a [batch], else empty. *)
  checksum : bool;
      (** The request asked for end-to-end integrity
          (["checksum": true]): rendering adds a ["sum"] digest of the
          compact result payload. *)
}

val handle : t -> Protocol.envelope -> response
(** [Batch] sub-requests run concurrently on the pool; everything else
    computes on a single pool worker.  Never raises: failures come back
    as [Error] outcomes.  A request (or engine-level) deadline that
    expires turns the outcome into a structured deadline error — the
    abandoned job finishes on its worker and still populates the cache,
    so a retry typically hits. *)

val response_to_json : ?timing:bool -> response -> Dnn_serial.Json.t
(** With [timing] (default [true]) responses carry ["cache"] and
    ["elapsed_ms"] fields.  [~timing:false] omits both, making the
    rendering a pure function of the request — the canonical form the
    determinism tests and reproducible transcripts compare. *)

val route_digest : Protocol.request -> (string option, string) result
(** The digest the request would cache under, computed without running
    it — exactly the key {!handle} files the payload under, so a router
    may use it for consistent hashing and front-cache lookups.
    [Ok None] for requests with no stable identity ([batch], [stats],
    [models]); [Error] when the request itself is unresolvable (unknown
    model, bad graph). *)

val error_kind : string -> string option
(** The machine-readable error class derived from a message's stable
    prefix (["internal"], ["deadline"], ["unavailable"],
    ["overloaded"]), or [None] for plain client errors. *)

val max_line_bytes : int
(** Largest accepted request line (8 MiB); longer lines are rejected
    without being parsed. *)

val handle_line : ?timing:bool -> t -> string -> string
(** Parse one NDJSON request line, handle it, render the response line
    (newline included).  Never raises: malformed or oversized lines
    produce an error response with op ["parse"], and any exception a
    pass leaks while computing produces an [Error] outcome on that
    request alone. *)

val stats_payload : t -> Dnn_serial.Json.t
(** The [stats] response body: cache counters, pool occupancy, breaker
    states, request metrics, and [pass_times_us] — the per-pass sum of
    {!Lcmm.Framework.pass_times} over the plans this engine's own
    [compile]/[simulate] misses computed (fusion's [segmentation_us]
    included when it ran), less the prepare passes' times
    ([profile_us], [liveness_us], [prefetch_us]) when a request took its
    prepared stage from a zoo model's stage memo; and [stages], the
    count of DSE sweeps ([dse_runs]) and prepares ([prepares]) those
    misses ran and of the stages they took from a memo instead
    ([memo_hits]: one per request that skipped the DSE).  [run]
    requests and other engines in the process do not count. *)

val cache : t -> Plan_cache.t

val pool : t -> Lcmm.Pool.t

val shutdown : t -> unit
(** Shut the pool down (joins its domains). *)
