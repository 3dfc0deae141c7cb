(** The tier router: consistent-hash request routing over a fleet of
    shards, with a tiered cache in front and a resilience layer on the
    router->shard path.

    Each digest-addressed request ({!Lcmm_service.Engine.route_digest})
    is answered from the first tier that has it: the router's in-memory
    LRU, the owner shard's cache (probed with [cache_get]), a sibling
    shard's cache (peer fill — the hit is copied back into the owner so
    one shard's compile warms the fleet), and finally compute forwarded
    to the owner.  An unreachable owner fails over to the next shard in
    ring order; an overloaded owner sheds the request with a structured
    ["overloaded"] error — backpressure pushes load back to the client
    instead of amplifying it onto the surviving shards.

    The resilience layer, all off by default:
    {ul
    {- {b Integrity}: always on — forwarded requests carry the route
       digest as [id] and ask for a ["sum"] digest of the reply
       payload; a reply that fails validation (wrong echo, bad sum,
       unparsable) is counted, charged to the shard's breaker and
       retried, never served.}
    {- {b Retries}: [retries] re-sends per candidate shard after
       transport failures or invalid replies, with doubling backoff
       capped at 8x the base and at the remaining deadline.}
    {- {b Hedging}: when a compute attempt has been quiet for [hedge_ms],
       the same request races the next shard in ring order; the first
       reply that passes validation wins.}
    {- {b Deadlines}: the forwarded envelope carries the budget
       remaining now, not the original figure — probes, backoff and
       earlier attempts all spend from the same purse, and an expired
       budget is answered [deadline exceeded] by the router itself.}
    {- {b Chaos}: a {!Chaos.t} interposes seeded transport faults on
       every digest-addressed shard call (and only those — stats and
       drain flushes pass untouched).}}

    With [timing] off and the resilience knobs at their defaults the
    rendered responses are byte-identical to a single-process
    [lcmm serve] answering the same requests. *)

type t

val create :
  ?router_cache_entries:int -> ?router_cache_mb:int -> ?deadline_ms:float ->
  ?timing:bool -> ?retries:int -> ?retry_backoff_ms:float ->
  ?hedge_ms:float -> ?call_timeout_ms:float -> ?chaos:Chaos.t ->
  ring:Ring.t -> shards:Shard.t list -> unit -> t
(** Router over [shards]; every name in [ring] must have a shard
    (raises [Invalid_argument] otherwise).  The front LRU holds up to
    [router_cache_entries] (default 512) payloads within
    [router_cache_mb] (default 64) MiB.  [deadline_ms] is the default
    budget for requests that carry none of their own.  [retries]
    (default 0) extra attempts per candidate with [retry_backoff_ms]
    (default 25) base backoff; [hedge_ms] enables hedging;
    [call_timeout_ms] bounds every shard call (also the time an
    injected hang burns).  Raises [Invalid_argument] on non-positive
    knobs ([retries]/[retry_backoff_ms] may be 0) and on a
    [router_cache_mb] that {!Lcmm_service.Lru.bytes_of_mb} rejects. *)

val set_chaos : t -> Chaos.t option -> unit
(** Swap the chaos injector at runtime (the bench resets counters per
    intensity rung by installing a fresh one). *)

val handle_line : t -> string -> string
(** One NDJSON request line in, one newline-terminated response line
    out; never raises.  Serve it with
    {!Lcmm_service.Server.serve_channels_with} or
    {!Lcmm_service.Server.serve_unix_socket_with}.  While draining,
    everything except [stats] is refused with a structured
    ["unavailable"] error.

    [stats] answers the extended body: the router's own counters
    (router / shard / peer-fill hits, sheds, computes, retries, hedges,
    invalid replies, LRU occupancy, ring shape, draining), fleet-wide
    cache totals aggregated over the shards that answered, each shard's
    health plus its own [stats] payload, and the chaos injector's
    counters when one is installed. *)

val counter_list : t -> (string * int) list
(** The router's request counters as a flat association list, in a
    fixed order — the bench fingerprints these. *)

val drain : ?timeout_s:float -> t -> int
(** The SIGTERM path.  Stop admitting new work (except [stats]); wait
    (default 10 s) for the in-flight requests to finish; then push every
    front-LRU entry to its owning shard with [cache_put], hottest first,
    so a restarted tier warms from the shard caches.  Returns the number
    of entries flushed; failures are logged and skipped.  The flush is
    never chaos-faulted. *)
