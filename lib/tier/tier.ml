let src = Logs.Src.create "lcmm.tier" ~doc:"Sharded plan-compilation tier"

module Log = (val Logs.src_log src : Logs.LOG)
module Json = Dnn_serial.Json
module Wire = Dnn_serial.Wire
module P = Lcmm_service.Protocol
module Engine = Lcmm_service.Engine
module Lru = Lcmm_service.Lru

type counters = {
  mutable requests : int;  (* leaf requests routed by digest *)
  mutable router_hits : int;  (* answered from the front LRU *)
  mutable shard_hits : int;  (* answered by the owner's cache probe *)
  mutable peer_probes : int;  (* cache_get probes sent to non-owners *)
  mutable peer_fills : int;  (* misses answered by a sibling's cache *)
  mutable computes : int;  (* requests forwarded for actual compute *)
  mutable shed : int;  (* rejected with a structured overload error *)
  mutable errors : int;  (* error responses of any other kind *)
  mutable retries : int;  (* compute attempts re-sent after a failure *)
  mutable hedges : int;  (* hedge requests launched *)
  mutable hedge_wins : int;  (* hedges whose reply beat the primary *)
  mutable invalid : int;  (* replies rejected by integrity validation *)
  mutable deadline : int;  (* requests expired inside the router *)
  mutable flushed : int;  (* entries pushed to owners by the drain flush *)
}

type t = {
  ring : Ring.t;
  by_name : (string, Shard.t) Hashtbl.t;
  shards : Shard.t list;  (* ring order of [Ring.shards] *)
  lru : Json.t Lru.t;
  mutex : Mutex.t;
  timing : bool;
  deadline_ms : float option;
  retries : int;
  retry_backoff_s : float;
  hedge_s : float option;  (* hedge threshold *)
  call_timeout_s : float option;
  mutable chaos : Chaos.t option;
  mutable draining : bool;
  mutable inflight : int;
  c : counters;
}

let with_lock t fn =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) fn

let count t bump = with_lock t (fun () -> bump t.c)

let shard t name = Hashtbl.find t.by_name name

let create ?(router_cache_entries = 512) ?(router_cache_mb = 64)
    ?deadline_ms ?(timing = true) ?(retries = 0) ?(retry_backoff_ms = 25.)
    ?hedge_ms ?call_timeout_ms ?chaos ~ring ~shards () =
  if retries < 0 then invalid_arg "Tier.create: retries must be >= 0";
  if retry_backoff_ms < 0. then
    invalid_arg "Tier.create: retry_backoff_ms must be >= 0";
  Option.iter
    (fun ms ->
      if ms <= 0. then invalid_arg "Tier.create: hedge_ms must be positive")
    hedge_ms;
  Option.iter
    (fun ms ->
      if ms <= 0. then
        invalid_arg "Tier.create: call_timeout_ms must be positive")
    call_timeout_ms;
  let router_cache_bytes =
    match Lru.bytes_of_mb router_cache_mb with
    | Ok bytes -> bytes
    | Error msg -> invalid_arg ("Tier.create: router_cache_mb: " ^ msg)
  in
  let by_name = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace by_name (Shard.name s) s) shards;
  let shards =
    List.map
      (fun name ->
        match Hashtbl.find_opt by_name name with
        | Some s -> s
        | None -> invalid_arg ("Tier.create: no shard named " ^ name))
      (Ring.shards ring)
  in
  { ring;
    by_name;
    shards;
    lru =
      Lru.create ~max_entries:router_cache_entries
        ~max_bytes:router_cache_bytes;
    mutex = Mutex.create ();
    timing;
    deadline_ms;
    retries;
    retry_backoff_s = retry_backoff_ms /. 1e3;
    hedge_s = Option.map (fun ms -> ms /. 1e3) hedge_ms;
    call_timeout_s = Option.map (fun ms -> ms /. 1e3) call_timeout_ms;
    chaos;
    draining = false;
    inflight = 0;
    c =
      { requests = 0;
        router_hits = 0;
        shard_hits = 0;
        peer_probes = 0;
        peer_fills = 0;
        computes = 0;
        shed = 0;
        errors = 0;
        retries = 0;
        hedges = 0;
        hedge_wins = 0;
        invalid = 0;
        deadline = 0;
        flushed = 0 } }

let set_chaos t chaos = with_lock t (fun () -> t.chaos <- chaos)

let lru_find t digest = with_lock t (fun () -> Lru.find t.lru digest)

let lru_store t digest payload =
  with_lock t (fun () ->
      ignore
        (Lru.add t.lru ~key:digest
           ~bytes:(String.length (Json.to_string payload))
           payload))

(* --- response rendering --- *)

(* The tier's stdio/socket output must be byte-identical to a
   single-process [lcmm serve] answering the same request: with timing
   off both render through [Wire] from the same envelope and the same
   [Json] payload (the codec round-trips renderings exactly), and error
   messages pass through verbatim.  The router->shard hop may decorate
   the forwarded envelope (integrity digest, remaining deadline) because
   the response the client sees is re-rendered here from the payload,
   never relayed. *)

let render_ok t (env : P.envelope) ?cache ~t0 payload =
  let cache = if t.timing then cache else None in
  let elapsed_ms =
    if t.timing then Some ((Unix.gettimeofday () -. t0) *. 1e3) else None
  in
  Wire.ok ?id:env.P.id ~op:(P.op_name env.P.request) ?cache ?elapsed_ms
    ~sum:env.P.checksum payload

let render_error t (env : P.envelope) msg =
  count t (fun c ->
      match Wire.kind msg with
      | Some "overloaded" -> c.shed <- c.shed + 1
      | Some "deadline" ->
        c.deadline <- c.deadline + 1;
        c.errors <- c.errors + 1
      | _ -> c.errors <- c.errors + 1);
  Wire.error ?id:env.P.id ~op:(P.op_name env.P.request) msg

(* --- talking to shards --- *)

(* Every line the router sends is an envelope encoded by
   [Protocol.envelope_to_json]; its own requests carry no deadline. *)
let line_of env = Json.to_string (P.envelope_to_json env)

let own request = { P.id = None; deadline_ms = None; checksum = false; request }

(* A cache-plane probe carries the digest as [id] and asks for a [sum]
   so the router can validate the reply end to end — a corrupted cache
   hit must never be cached or served. *)
let cache_get_line digest =
  line_of
    { (own (P.Cache_get digest)) with
      P.id = Some (Json.String digest);
      checksum = true }

let cache_put_line digest payload =
  line_of (own (P.Cache_put (digest, payload)))

(* The forwarded copy of a routed envelope: the route digest rides as
   [id] (so the reply provably answers this request), [checksum]
   requests the integrity digest, and the deadline becomes the budget
   remaining *now* — the shard must not spend time the router already
   burned on probes, backoff or earlier attempts. *)
let forward_line t (env : P.envelope) ~digest ~remaining_ms =
  let deadline_ms =
    match remaining_ms with
    | Some _ -> remaining_ms
    | None -> t.deadline_ms
  in
  let env =
    { env with
      P.id = Some (Json.String digest);
      P.checksum = true;
      P.deadline_ms }
  in
  line_of env

(* --- the chaos-interposed physical call --- *)

(* Attempt numbers distinguish the draws of one request's physical
   calls (probe, compute, retries, hedges).  They are taken from a
   request-local counter *before* a call launches, so a hedge race
   assigns primary/hedge numbers deterministically regardless of which
   thread runs first. *)
type call_ctx = { ckey : int option; next_attempt : int ref }

let make_ctx t ~digest =
  match with_lock t (fun () -> t.chaos) with
  | None -> { ckey = None; next_attempt = ref 0 }
  | Some ch ->
    { ckey = Some (Chaos.key ch ~digest); next_attempt = ref 0 }

let take_attempt ctx =
  let n = !(ctx.next_attempt) in
  ctx.next_attempt := n + 1;
  n

let shard_index t s = Ring.position t.ring (Shard.name s)

(* One physical call to [s] with the chaos injector interposed on the
   wire.  [Reset] fails without touching the shard; [Hang] burns the
   call timeout then fails (the shard never saw the request — exactly
   what a hung connection looks like from the router); [Trunc]/
   [Corrupt] let the real reply through mangled; [Delay] and slow-shard
   factors stretch the observed latency.  Injected transport failures
   are charged to the shard's breaker just like real ones. *)
let shard_call t ctx s line =
  match (with_lock t (fun () -> t.chaos), ctx.ckey) with
  | None, _ | _, None -> Shard.call ?timeout_s:t.call_timeout_s s line
  | Some ch, Some key -> (
    let attempt = take_attempt ctx in
    match Chaos.action ch ~key ~attempt with
    | Fault.Injector.Reset ->
      Shard.penalize s;
      Error (Shard.Transport "connection reset (injected)")
    | Fault.Injector.Hang ->
      let budget = Option.value t.call_timeout_s ~default:1.0 in
      Unix.sleepf budget;
      Shard.penalize s;
      Error
        (Shard.Transport
           (Printf.sprintf "no reply within %.0f ms (injected hang)"
              (budget *. 1e3)))
    | (Fault.Injector.Pass | Fault.Injector.Delay _ | Fault.Injector.Trunc
      | Fault.Injector.Corrupt) as action -> (
      let t0 = Unix.gettimeofday () in
      let r = Shard.call ?timeout_s:t.call_timeout_s s line in
      let factor =
        match shard_index t s with
        | Some idx -> Chaos.slow_factor ch ~shard:idx
        | None -> 1.
      in
      if factor > 1. then
        Unix.sleepf ((factor -. 1.) *. (Unix.gettimeofday () -. t0));
      (match action with
      | Fault.Injector.Delay d -> Unix.sleepf d
      | _ -> ());
      match (r, action) with
      | Ok reply, (Fault.Injector.Trunc | Fault.Injector.Corrupt) ->
        Ok (Chaos.mangle ch ~key ~attempt ~action reply)
      | _ -> r))

(* --- reply validation --- *)

(* What one compute attempt came back as.  [Invalid] covers everything
   integrity validation rejects: unparsable bytes, an [id] echo that is
   not this request's digest, a missing or mismatched [sum].  The shard
   is penalized (the damage happened on its path) and the attempt is
   retried like a transport failure — a corrupted reply must never
   reach the client as a success. *)
type reply =
  | RValid of Json.t
  | RApp of string  (* structured application error: pass through *)
  | RShed of string  (* the shard's in-flight gate said no *)
  | RRetry of string  (* transport failure or invalid reply *)

let validate_reply t s ~digest line =
  let invalid why =
    count t (fun c -> c.invalid <- c.invalid + 1);
    Shard.penalize s;
    Log.warn (fun m ->
        m "invalid reply from %s for %s: %s" (Shard.name s) digest why);
    RRetry (Printf.sprintf "invalid reply from shard %s: %s" (Shard.name s) why)
  in
  match Wire.decode line with
  | Error why -> invalid why
  | Ok { Wire.id = Some (Json.String id); answer } when id = digest -> (
    match answer with
    | Ok (payload, Some sum) when sum = Wire.sum_of payload -> RValid payload
    | Ok (_, Some _) -> invalid "sum does not match the payload"
    | Ok (_, None) -> invalid "missing sum"
    | Error (msg, Some "overloaded") -> RShed msg
    | Error (msg, _) -> RApp msg)
  | Ok _ -> invalid "id echo does not match the route digest"

let classify_attempt t s ~digest = function
  | Error (Shard.Overloaded msg) -> RShed msg
  | Error (Shard.Unavailable msg | Shard.Transport msg) -> RRetry msg
  | Ok line -> validate_reply t s ~digest line

(* --- hedged calls --- *)

(* Race the primary against [hedge] once the primary has been quiet for
   the hedge threshold.  A polling race, not a pipe-based one: each
   finisher posts into a mutex-guarded slot and the coordinator polls
   at 1 ms — the loser thread outlives the return harmlessly (its post
   lands in a slot nobody reads) instead of writing into a file
   descriptor the winner already closed.

   The first *valid* reply wins ([RValid] or a structured app error —
   both are definitive answers); if both attempts finish without one,
   the primary's failure is reported.  Attempt numbers are taken for
   both racers up front so the chaos draws do not depend on thread
   scheduling. *)
let hedged_call t ctx ~digest ~primary ~hedge line =
  match (hedge, t.hedge_s) with
  | None, _ | _, None ->
    classify_attempt t primary ~digest (shard_call t ctx primary line)
  | Some hedge_shard, Some threshold ->
    let slot = Mutex.create () in
    let first = ref None in  (* first definitive reply *)
    let fallback = ref None in  (* first reply of any kind *)
    let finished = ref 0 in
    let definitive = function RValid _ | RApp _ -> true | _ -> false in
    let post ~hedged reply =
      Mutex.lock slot;
      finished := !finished + 1;
      if !fallback = None then fallback := Some (hedged, reply);
      if !first = None && definitive reply then first := Some (hedged, reply);
      Mutex.unlock slot
    in
    let launch ~hedged s attempt =
      Thread.create
        (fun () ->
          let ctx_one = { ckey = ctx.ckey; next_attempt = ref attempt } in
          let r =
            try classify_attempt t s ~digest (shard_call t ctx_one s line)
            with e -> RRetry ("hedge race: " ^ Printexc.to_string e)
          in
          post ~hedged r)
        ()
    in
    let a_primary = take_attempt ctx in
    let a_hedge = take_attempt ctx in
    ignore (launch ~hedged:false primary a_primary);
    let t0 = Unix.gettimeofday () in
    let hedge_launched = ref false in
    let result = ref None in
    while !result = None do
      Mutex.lock slot;
      let racers = if !hedge_launched then 2 else 1 in
      (match !first with
      | Some (hedged, reply) ->
        if hedged then count t (fun c -> c.hedge_wins <- c.hedge_wins + 1);
        result := Some reply
      | None ->
        if !finished >= racers then
          result := Some (match !fallback with
            | Some (_, reply) -> reply
            | None -> RRetry "hedge race finished without a reply"));
      Mutex.unlock slot;
      if !result = None then begin
        if (not !hedge_launched)
           && Unix.gettimeofday () -. t0 >= threshold
        then begin
          hedge_launched := true;
          count t (fun c -> c.hedges <- c.hedges + 1);
          ignore (launch ~hedged:true hedge_shard a_hedge)
        end;
        Thread.delay 0.001
      end
    done;
    Option.get !result

(* --- the routing flow --- *)

(* Probe one shard's cache for a digest.  [`Hit payload] on success,
   [`Miss] when the shard answered but had nothing — or answered
   something integrity validation rejected (penalized, and a miss is
   the safe reading: worst case we recompute), [`Down] when it could
   not be reached at all, [`Overloaded msg] when its in-flight gate
   shed the probe — the caller must shed the request rather than fail
   over, or overload on one shard would amplify onto the survivors. *)
let probe_cache t ctx s digest =
  match shard_call t ctx s (cache_get_line digest) with
  | Error (Shard.Overloaded msg) -> `Overloaded msg
  | Error (Shard.Unavailable _ | Shard.Transport _) -> `Down
  | Ok line -> (
    match validate_reply t s ~digest line with
    | RValid payload -> `Hit payload
    | RApp _ | RShed _ | RRetry _ -> `Miss)

(* Best-effort: seed the owner's cache with a payload found elsewhere so
   the next probe for this digest hits locally. *)
let backfill t ctx owner digest payload =
  match shard_call t ctx owner (cache_put_line digest payload) with
  | Ok _ -> ()
  | Error e ->
    Log.warn (fun m ->
        m "peer backfill of %s into %s failed: %s" digest (Shard.name owner)
          (Shard.error_message e))

(* Answer a digest-addressed leaf request: front LRU, then the owner's
   cache, then the sibling caches (peer fill), then compute on the
   owner.  An unreachable owner fails over to the next shard in ring
   order; an overloaded owner sheds the request instead — backpressure
   must push load back to the client, not amplify it onto the
   survivors.

   Compute attempts carry a retry budget per candidate shard
   ([t.retries] re-sends with doubling, capped backoff), hedge against
   the next shard in ring order when the primary is slow, and check the
   request's remaining deadline before every physical attempt — when
   the budget is gone, the router answers [deadline exceeded] itself
   instead of spending a shard's time on an answer nobody is waiting
   for. *)
let route t (env : P.envelope) digest =
  let t0 = Unix.gettimeofday () in
  count t (fun c -> c.requests <- c.requests + 1);
  let ctx = make_ctx t ~digest in
  let deadline_at =
    match env.P.deadline_ms with
    | Some ms -> Some (t0 +. (ms /. 1e3))
    | None -> Option.map (fun ms -> t0 +. (ms /. 1e3)) t.deadline_ms
  in
  let remaining_ms () =
    Option.map (fun at -> (at -. Unix.gettimeofday ()) *. 1e3) deadline_at
  in
  let expired () =
    match remaining_ms () with Some ms -> ms <= 0. | None -> false
  in
  let deadline_error () =
    render_error t env
      "deadline exceeded: request budget exhausted in the router"
  in
  match lru_find t digest with
  | Some payload ->
    count t (fun c -> c.router_hits <- c.router_hits + 1);
    render_ok t env ~cache:"hit" ~t0 payload
  | None -> (
    let owners = Ring.successors t.ring digest in
    let peers_of owner =
      List.filter (fun n -> n <> Shard.name owner) owners
    in
    let peer_fill owner =
      let rec probe = function
        | [] -> None
        | name :: rest -> (
          count t (fun c -> c.peer_probes <- c.peer_probes + 1);
          match probe_cache t ctx (shard t name) digest with
          | `Hit payload -> Some payload
          (* A busy peer just doesn't help with this fill. *)
          | `Miss | `Down | `Overloaded _ -> probe rest)
      in
      match probe (peers_of owner) with
      | None -> None
      | Some payload ->
        count t (fun c -> c.peer_fills <- c.peer_fills + 1);
        backfill t ctx owner digest payload;
        Some payload
    in
    let compute owner retry_names =
      count t (fun c -> c.computes <- c.computes + 1);
      let rec on_candidates = function
        | [] ->
          render_error t env
            "unavailable: no shard could take the request"
        | s :: rest ->
          let hedge = match rest with [] -> None | h :: _ -> Some h in
          (* Per-candidate retry budget: attempt 0 plus [t.retries]
             re-sends, each after a doubling backoff capped at 8x the
             base and at the remaining deadline. *)
          let rec attempt k last_err =
            if k > t.retries then begin
              Log.warn (fun m ->
                  m "compute on %s failed (%s); trying next shard"
                    (Shard.name s) last_err);
              on_candidates rest
            end
            else if expired () then deadline_error ()
            else begin
              if k > 0 then begin
                count t (fun c -> c.retries <- c.retries + 1);
                let back =
                  Fault.Injector.capped_backoff ~base:t.retry_backoff_s
                    ~cap:(t.retry_backoff_s *. 8.) ~attempt:(k - 1)
                in
                let back =
                  match remaining_ms () with
                  | Some ms -> Float.min back (Float.max 0. (ms /. 1e3))
                  | None -> back
                in
                if back > 0. then Unix.sleepf back
              end;
              if expired () then deadline_error ()
              else begin
                let line =
                  forward_line t env ~digest ~remaining_ms:(remaining_ms ())
                in
                match hedged_call t ctx ~digest ~primary:s ~hedge line with
                | RValid payload ->
                  lru_store t digest payload;
                  render_ok t env ~cache:"miss" ~t0 payload
                | RApp msg -> render_error t env msg
                | RShed msg -> render_error t env msg
                | RRetry msg -> attempt (k + 1) msg
              end
            end
          in
          attempt 0 "no attempt made"
      in
      on_candidates (Shard.name owner :: retry_names |> List.map (shard t))
    in
    let rec from_owner = function
      | [] ->
        render_error t env "unavailable: no shard could take the request"
      | owner_name :: fallbacks -> (
        if expired () then deadline_error ()
        else
          let owner = shard t owner_name in
          match probe_cache t ctx owner digest with
          | `Hit payload ->
            count t (fun c -> c.shard_hits <- c.shard_hits + 1);
            lru_store t digest payload;
            render_ok t env ~cache:"hit" ~t0 payload
          | `Miss -> (
            match peer_fill owner with
            | Some payload ->
              lru_store t digest payload;
              render_ok t env ~cache:"peer" ~t0 payload
            | None -> (
              match env.P.request with
              | P.Cache_get _ ->
                (* Nothing to compute: the probe is the request. *)
                render_error t env (Printf.sprintf "not cached: %s" digest)
              | _ -> compute owner fallbacks))
          | `Overloaded msg ->
            (* Backpressure, not failover: the owner is alive but full. *)
            render_error t env msg
          | `Down ->
            (* The owner is unreachable for probes too; the next shard in
               ring order takes over wholesale. *)
            from_owner fallbacks)
    in
    match env.P.request with
    | P.Cache_put (_, payload) ->
      lru_store t digest payload;
      let owner = shard t (Ring.lookup t.ring digest) in
      (match
         shard_call t ctx owner
           (forward_line t env ~digest ~remaining_ms:(remaining_ms ()))
       with
      | Ok line -> (
        match validate_reply t owner ~digest line with
        | RValid payload -> render_ok t env ~t0 payload
        | RApp msg | RShed msg | RRetry msg -> render_error t env msg)
      | Error e -> render_error t env (Shard.error_message e))
    | _ -> from_owner owners)

(* Requests with no digest (models) go to the first shard that answers.
   They carry no chaos key — there is no stable identity to draw
   against — and no integrity digest, since there is no digest for the
   reply to echo. *)
let forward_any t (env : P.envelope) =
  let t0 = Unix.gettimeofday () in
  let env =
    match env.P.deadline_ms with
    | Some _ -> env
    | None -> { env with P.deadline_ms = t.deadline_ms }
  in
  let line = line_of env in
  let rec on = function
    | [] ->
      render_error t env "unavailable: no shard could take the request"
    | s :: rest -> (
      match Shard.call ?timeout_s:t.call_timeout_s s line with
      | Ok reply -> (
        match Wire.decode reply with
        | Ok { Wire.answer = Ok (payload, _); _ } -> render_ok t env ~t0 payload
        | Ok { Wire.answer = Error (msg, _); _ } -> render_error t env msg
        | Error why -> render_error t env ("internal: shard response " ^ why))
      | Error _ -> on rest)
  in
  on t.shards

(* --- aggregated stats --- *)

let counter_list t =
  with_lock t (fun () ->
      [ ("requests", t.c.requests);
        ("router_hits", t.c.router_hits);
        ("shard_hits", t.c.shard_hits);
        ("peer_probes", t.c.peer_probes);
        ("peer_fills", t.c.peer_fills);
        ("computes", t.c.computes);
        ("shed", t.c.shed);
        ("errors", t.c.errors);
        ("retries", t.c.retries);
        ("hedges", t.c.hedges);
        ("hedge_wins", t.c.hedge_wins);
        ("invalid_replies", t.c.invalid);
        ("deadline_errors", t.c.deadline);
        ("flushed", t.c.flushed) ])

let counters_json t =
  let base = List.map (fun (k, v) -> (k, Json.Int v)) (counter_list t) in
  Json.Obj
    (base
    @ [ ( "router_cache",
          Json.Obj
            [ ("entries", Json.Int (Lru.length t.lru));
              ("bytes", Json.Int (Lru.total_bytes t.lru)) ] );
        ( "ring",
          Json.Obj
            [ ("shards", Json.Int (List.length t.shards));
              ("vnodes", Json.Int (Ring.vnodes t.ring)) ] );
        ("draining", Json.Bool (with_lock t (fun () -> t.draining))) ])

let stats_payload t =
  let shard_stats =
    List.map
      (fun s ->
        let remote =
          match
            Shard.call ?timeout_s:t.call_timeout_s s (line_of (own P.Stats))
          with
          | Ok line -> (
            match Wire.decode line with
            | Ok { Wire.answer = Ok (payload, _); _ } -> payload
            | Ok _ | Error _ -> Json.Null)
          | Error _ -> Json.Null
        in
        (Shard.name s, Shard.stats_json s, remote))
      t.shards
  in
  (* Fleet-wide cache totals, summed over whichever shards answered. *)
  let cache_total field =
    List.fold_left
      (fun acc (_, _, remote) ->
        match Json.member_opt "cache" remote with
        | Some cache -> (
          match Json.member_opt field cache with
          | Some (Json.Int n) -> acc + n
          | _ -> acc)
        | None -> acc)
      0 shard_stats
  in
  let chaos_field =
    match with_lock t (fun () -> t.chaos) with
    | None -> []
    | Some ch -> [ ("chaos", Chaos.counters_json ch) ]
  in
  Json.Obj
    ([ ("tier", counters_json t);
       ( "aggregate",
         Json.Obj
           [ ("cache_hits", Json.Int (cache_total "hits"));
             ("cache_misses", Json.Int (cache_total "misses"));
             ("cache_entries", Json.Int (cache_total "entries"));
             ("cache_bytes", Json.Int (cache_total "bytes")) ] );
       ( "shards",
         Json.List
           (List.map
              (fun (name, health, remote) ->
                Json.Obj
                  [ ("name", Json.String name); ("health", health);
                    ("stats", remote) ])
              shard_stats) ) ]
    @ chaos_field)

(* --- entry points --- *)

let rec respond t (env : P.envelope) =
  match env.P.request with
  | P.Batch subs ->
    let t0 = Unix.gettimeofday () in
    let docs = List.map (respond t) subs in
    render_ok t env ~t0 (Json.List docs)
  | P.Stats ->
    let t0 = Unix.gettimeofday () in
    render_ok t env ~t0 (stats_payload t)
  | _ -> (
    match Engine.route_digest env.P.request with
    | Error msg -> render_error t env msg
    | Ok (Some digest) -> route t env digest
    | Ok None -> forward_any t env)

let handle_line t line =
  match P.request_of_line line with
  | Error msg -> Wire.to_line (Wire.error ~op:"parse" msg)
  | Ok env -> (
    (* A draining tier stops admitting work ([stats] stays open so
       the operator can watch the drain) but finishes what it already
       accepted — the in-flight gate below is what [await_idle]
       waits on. *)
    let admitted =
      with_lock t (fun () ->
          match env.P.request with
          | P.Stats -> true
          | _ ->
            if t.draining then false
            else begin
              t.inflight <- t.inflight + 1;
              true
            end)
    in
    if not admitted then
      Wire.to_line
        (Wire.error ?id:env.P.id ~op:(P.op_name env.P.request)
           "unavailable: tier is draining")
    else
      let release () =
        match env.P.request with
        | P.Stats -> ()
        | _ -> with_lock t (fun () -> t.inflight <- t.inflight - 1)
      in
      Fun.protect ~finally:release (fun () ->
          match respond t env with
          | doc -> Wire.to_line doc
          | exception e ->
            Log.err (fun m ->
                m "tier dispatch raised: %s" (Printexc.to_string e));
            Wire.to_line
              (Wire.error ?id:env.P.id ~op:(P.op_name env.P.request)
                 ("internal: " ^ Printexc.to_string e))))

(* --- graceful drain --- *)

let inflight t = with_lock t (fun () -> t.inflight)

(* Wait for every admitted request to finish rendering; true when the
   tier went idle within the budget. *)
let await_idle ?(timeout_s = 10.) t =
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    if inflight t = 0 then true
    else if Unix.gettimeofday () -. t0 >= timeout_s then false
    else begin
      Thread.delay 0.005;
      wait ()
    end
  in
  wait ()

(* Push the router's LRU back to the owning shards so a restarted tier
   warms from their caches instead of recomputing.  MRU first: if the
   shards go away mid-flush, the hottest entries made it.  The flush
   bypasses the chaos injector (no chaos key) — it repairs state, and
   the entries were validated when they were cached. *)
let flush_cache t =
  let entries = with_lock t (fun () -> Lru.bindings t.lru) in
  List.fold_left
    (fun acc (digest, payload) ->
      let owner = shard t (Ring.lookup t.ring digest) in
      match
        Shard.call ?timeout_s:t.call_timeout_s owner
          (cache_put_line digest payload)
      with
      | Ok _ ->
        count t (fun c -> c.flushed <- c.flushed + 1);
        acc + 1
      | Error e ->
        Log.warn (fun m ->
            m "drain flush of %s to %s failed: %s" digest (Shard.name owner)
              (Shard.error_message e));
        acc)
    0 entries

let drain ?timeout_s t =
  with_lock t (fun () -> t.draining <- true);
  let idle = await_idle ?timeout_s t in
  if not idle then
    Log.warn (fun m ->
        m "drain timed out with %d requests still in flight" (inflight t));
  flush_cache t
