(* The sharded plan-compilation tier: hash ring, shard gate/breaker,
   router cache tiers and peer fill, and the open-loop load generator. *)

module Json = Dnn_serial.Json
module Svc = Lcmm_service
module Ring = Lcmm_tier.Ring
module Shard = Lcmm_tier.Shard
module Tier = Lcmm_tier.Tier
module Loadgen = Lcmm_tier.Loadgen

let json_t = Alcotest.testable Json.pp Json.equal

let state_t =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with `Up -> "up" | `Suspect -> "suspect" | `Down -> "down"))
    ( = )

(* 10k synthetic digests, the shape [Cache_key] produces. *)
let synthetic_digests n =
  List.init n (fun i -> Digest.to_hex (Digest.string (string_of_int i)))

(* --- hash ring --- *)

let test_ring_deterministic () =
  let names = [ "shard-0"; "shard-1"; "shard-2"; "shard-3" ] in
  let r1 = Ring.create ~vnodes:64 names in
  let r2 = Ring.create ~vnodes:64 (List.rev names) in
  List.iter
    (fun d ->
      Alcotest.(check string)
        ("same owner for " ^ d)
        (Ring.lookup r1 d) (Ring.lookup r2 d))
    (synthetic_digests 500)

let test_ring_balance () =
  let names = [ "a"; "b"; "c"; "d" ] in
  let ring = Ring.create ~vnodes:128 names in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun d ->
      let owner = Ring.lookup ring d in
      Hashtbl.replace counts owner
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts owner)))
    (synthetic_digests 10_000);
  let ideal = 10_000. /. 4. in
  List.iter
    (fun name ->
      let n = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) in
      Alcotest.(check bool)
        (Printf.sprintf "shard %s within 35%% of ideal (%.0f keys)" name n)
        true
        (n > ideal *. 0.65 && n < ideal *. 1.35))
    names

let test_ring_minimal_movement () =
  let digests = synthetic_digests 10_000 in
  let before = Ring.create ~vnodes:128 [ "a"; "b"; "c"; "d" ] in
  let after = Ring.create ~vnodes:128 [ "a"; "b"; "c"; "d"; "e" ] in
  let moved =
    List.filter (fun d -> Ring.lookup before d <> Ring.lookup after d) digests
  in
  (* Every key that moved must have moved TO the new shard — consistent
     hashing never reshuffles keys between surviving shards. *)
  List.iter
    (fun d ->
      Alcotest.(check string) ("moved key lands on e: " ^ d) "e"
        (Ring.lookup after d))
    moved;
  (* And only about 1/5 of the keyspace moves (the new shard's share);
     allow generous slack over the 2000-key ideal. *)
  let frac = float_of_int (List.length moved) /. 10_000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f%% of keys moved" (frac *. 100.))
    true
    (frac > 0.05 && frac < 0.35)

let test_ring_successors () =
  let names = [ "a"; "b"; "c" ] in
  let ring = Ring.create names in
  List.iter
    (fun d ->
      let succ = Ring.successors ring d in
      Alcotest.(check int) "all shards listed" 3 (List.length succ);
      Alcotest.(check string) "owner first" (Ring.lookup ring d) (List.hd succ);
      Alcotest.(check bool) "all distinct" true
        (List.sort_uniq String.compare succ |> List.length = 3))
    (synthetic_digests 100)

let test_ring_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Ring.create: no shards")
    (fun () -> ignore (Ring.create []));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Ring.create: duplicate shard names") (fun () ->
      ignore (Ring.create [ "a"; "a" ]))

(* Bad knobs are refused before anything runs: [Shard.spawn] checks its
   gate before starting the child (the program named here does not
   exist, so a late check would surface as a spawn [Error] instead),
   and the router cache's megabytes may not wrap to a bogus byte bound. *)
let test_bad_knobs_rejected_early () =
  Alcotest.check_raises "max_inflight 0"
    (Invalid_argument "Shard: max_inflight must be >= 1") (fun () ->
      ignore
        (Shard.spawn ~name:"s" ~socket:"unused.sock" ~max_inflight:0
           [| "/nonexistent/lcmm" |]));
  let shard = Shard.local ~name:"a" (fun line -> line) in
  Alcotest.check_raises "router_cache_mb wraps"
    (Invalid_argument
       (Printf.sprintf
          "Tier.create: router_cache_mb: expected a count of megabytes from \
           1 to %d"
          (max_int / (1024 * 1024))))
    (fun () ->
      ignore
        (Tier.create ~router_cache_mb:8796093022272
           ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] ()))

(* --- shard gate and breaker (local backend) --- *)

let ok_line payload =
  Dnn_serial.Wire.to_line (Dnn_serial.Wire.ok ~op:"compile" payload)

let test_shard_inflight_gate () =
  let release = Mutex.create () in
  Mutex.lock release;
  let slow _line =
    (* Parks until the main thread releases it. *)
    Mutex.lock release;
    Mutex.unlock release;
    ok_line (Json.Int 1)
  in
  let shard = Shard.local ~name:"s" ~max_inflight:1 slow in
  let first = Thread.create (fun () -> Shard.call shard "x") () in
  Thread.delay 0.1;
  (match Shard.call shard "y" with
  | Error (Shard.Overloaded msg) ->
    Alcotest.(check bool) "structured overloaded message" true
      (String.length msg >= 10 && String.sub msg 0 10 = "overloaded")
  | Ok _ | Error _ -> Alcotest.fail "expected an overloaded shed");
  Mutex.unlock release;
  (match Thread.join first with () -> ());
  (* The gate freed up: calls pass again. *)
  match Shard.call shard "z" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "expected success after release: %s" (Shard.error_message e)

let test_shard_breaker_opens () =
  let shard = Shard.local ~name:"s" (fun _ -> failwith "boom") in
  (* Three consecutive transport failures trip the circuit... *)
  for _ = 1 to 3 do
    match Shard.call shard "x" with
    | Error (Shard.Transport _) -> ()
    | Ok _ | Error _ -> Alcotest.fail "expected a transport failure"
  done;
  Alcotest.check state_t "circuit open" `Down (Shard.state shard);
  (* ...and while open, calls shed without touching the handler. *)
  match Shard.call shard "x" with
  | Error (Shard.Unavailable _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected unavailable while open"

(* The full passive breaker lifecycle on one shard: closed (up) ->
   open (down) after threshold consecutive failures -> half-open
   (suspect) once the cooldown expires -> re-open when the probation
   call fails -> closed (up) again when one finally succeeds. *)
let test_shard_breaker_half_open_sequence () =
  let failing = ref true in
  let handler _line =
    if !failing then failwith "boom" else ok_line (Json.Int 1)
  in
  let shard =
    Shard.local ~name:"s" ~breaker_threshold:3 ~breaker_cooldown_s:0.15
      handler
  in
  Alcotest.check state_t "starts up" `Up (Shard.state shard);
  for _ = 1 to 3 do
    match Shard.call shard "x" with
    | Error (Shard.Transport _) -> ()
    | Ok _ | Error _ -> Alcotest.fail "expected a transport failure"
  done;
  Alcotest.check state_t "open after threshold" `Down (Shard.state shard);
  (match Shard.call shard "x" with
  | Error (Shard.Unavailable _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected unavailable while open");
  Thread.delay 0.2;
  (* Cooldown expired, recovery unproven: half-open probation. *)
  Alcotest.check state_t "suspect once cooldown expires" `Suspect
    (Shard.state shard);
  (* The probation call is admitted — and fails, re-opening the circuit. *)
  (match Shard.call shard "x" with
  | Error (Shard.Transport _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the probation call to fail");
  Alcotest.check state_t "re-opened" `Down (Shard.state shard);
  Thread.delay 0.2;
  failing := false;
  (match Shard.call shard "x" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "probation success: %s" (Shard.error_message e));
  Alcotest.check state_t "closed again" `Up (Shard.state shard)

(* Half-open admits exactly one call: while the probe call is parked
   in the handler, a concurrent call is shed as [Unavailable] without
   reaching the handler. *)
let test_shard_half_open_single_probe () =
  let failing = ref true in
  let entered = Atomic.make 0 in
  let release = Mutex.create () in
  let handler _line =
    if !failing then failwith "boom"
    else begin
      Atomic.incr entered;
      (* Parks until the main thread releases it. *)
      Mutex.lock release;
      Mutex.unlock release;
      ok_line (Json.Int 1)
    end
  in
  let shard =
    Shard.local ~name:"s" ~breaker_threshold:3 ~breaker_cooldown_s:0.15
      handler
  in
  for _ = 1 to 3 do
    ignore (Shard.call shard "x")
  done;
  Alcotest.check state_t "open" `Down (Shard.state shard);
  Thread.delay 0.2;
  failing := false;
  Mutex.lock release;
  let run_call () =
    let result = ref None in
    (Thread.create (fun () -> result := Some (Shard.call shard "x")) (), result)
  in
  let probe_thread, probe_result = run_call () in
  Thread.delay 0.1;
  let second_thread, second_result = run_call () in
  Thread.delay 0.1;
  Mutex.unlock release;
  Thread.join probe_thread;
  Thread.join second_thread;
  (match !probe_result with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "expected the probe call to succeed");
  (match !second_result with
  | Some (Error (Shard.Unavailable _)) -> ()
  | _ -> Alcotest.fail "expected the concurrent call to be shed");
  Alcotest.(check int) "only the probe reached the handler" 1
    (Atomic.get entered);
  Alcotest.check state_t "closed by the probe" `Up (Shard.state shard)

(* A shard whose one call is parked in [handler] until [release] is
   unlocked; returns the shard, the parked call's thread and its result. *)
let park_one_call ~release ?breaker_cooldown_s handler =
  let entered = Atomic.make false in
  let parked _line =
    Atomic.set entered true;
    Mutex.lock release;
    Mutex.unlock release;
    handler ()
  in
  let shard =
    Shard.local ~name:"s" ~max_inflight:1 ~breaker_threshold:1
      ?breaker_cooldown_s parked
  in
  Mutex.lock release;
  let result = ref None in
  let thread =
    Thread.create (fun () -> result := Some (Shard.call shard "x")) ()
  in
  while not (Atomic.get entered) do
    Thread.delay 0.01
  done;
  (shard, thread, result)

(* A full gate answers from the breaker: [Overloaded] while the circuit
   is closed, [Unavailable] once it is open, so the router fails over
   around a dead owner instead of shedding.  The parked call, admitted
   before the trip, closes the circuit when it succeeds late. *)
let test_shard_full_gate_open_circuit () =
  let release = Mutex.create () in
  let shard, thread, result =
    park_one_call ~release ~breaker_cooldown_s:60. (fun () ->
        ok_line (Json.Int 1))
  in
  (match Shard.call shard "y" with
  | Error (Shard.Overloaded _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected overloaded at a closed circuit");
  Shard.penalize shard;
  Alcotest.check state_t "open" `Down (Shard.state shard);
  (match Shard.call shard "y" with
  | Error (Shard.Unavailable _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected unavailable at an open circuit");
  Mutex.unlock release;
  Thread.join thread;
  (match !result with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "expected the parked call to succeed");
  Alcotest.check state_t "late success closes the circuit" `Up
    (Shard.state shard)

(* A call admitted before the trip that fails late is counted, but does
   not extend the cooldown the trip started. *)
let test_shard_late_failure_keeps_cooldown () =
  let release = Mutex.create () in
  let shard, thread, result =
    park_one_call ~release ~breaker_cooldown_s:0.3 (fun () -> failwith "boom")
  in
  Shard.penalize shard;
  let tripped = Unix.gettimeofday () in
  Thread.delay 0.15;
  Mutex.unlock release;
  Thread.join thread;
  (match !result with
  | Some (Error (Shard.Transport _)) -> ()
  | _ -> Alcotest.fail "expected the parked call to fail");
  let left = tripped +. 0.4 -. Unix.gettimeofday () in
  if left > 0. then Thread.delay left;
  Alcotest.check state_t "cooldown ran from the trip" `Suspect
    (Shard.state shard);
  Alcotest.check json_t "both failures counted" (Json.Int 2)
    (match Json.member "failures" (Shard.stats_json shard) with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg)

(* --- tier routing over in-process shards --- *)

(* Engines are expensive to spin up (domains); each test builds the
   smallest fleet it needs. *)
let with_engines n fn =
  let engines =
    List.init n (fun _ ->
        Svc.Engine.create ~pool:(Lcmm.Pool.create ~domains:1 ()) ())
  in
  Fun.protect
    ~finally:(fun () -> List.iter Svc.Engine.shutdown engines)
    (fun () -> fn engines)

let local_shard name engine =
  Shard.local ~name (Svc.Engine.handle_line ~timing:true engine)

let field_exn key v =
  match Json.member key v with
  | Ok f -> f
  | Error msg -> Alcotest.failf "field %s: %s" key msg

let response_of line =
  match Json.of_string (String.trim line) with
  | Error msg -> Alcotest.failf "bad response line: %s" msg
  | Ok v -> v

(* The router's own counters, from a [stats] request. *)
let tier_stats tier =
  field_exn "tier"
    (field_exn "result"
       (response_of (Tier.handle_line tier {|{"op":"stats"}|})))

let counter tier key =
  match field_exn key (tier_stats tier) with
  | Json.Int n -> n
  | v -> Alcotest.failf "counter %s not an int: %s" key (Json.to_string v)

let compile_line ?(slices = 1) model =
  Printf.sprintf
    {|{"op":"compile","model":"%s","dtype":"i8","options":{"weight_slices":%d}}|}
    model slices

(* A compile request whose digest lands on [want] in [ring]: scan
   weight_slices variants (each changes the digest, not the answer's
   existence). *)
let request_owned_by ring want =
  let rec search slices =
    if slices > 64 then Alcotest.fail "no request found for shard"
    else
      let line = compile_line ~slices "alexnet" in
      match Svc.Protocol.request_of_line line with
      | Error msg -> Alcotest.fail msg
      | Ok env -> (
        match Svc.Engine.route_digest env.Svc.Protocol.request with
        | Ok (Some digest) when Ring.lookup ring digest = want -> line
        | Ok (Some _) -> search (slices + 1)
        | Ok None | Error _ -> Alcotest.fail "expected a digest")
  in
  search 1

let test_tier_cache_tiers () =
  with_engines 2 (fun engines ->
      let shards =
        List.map2 local_shard [ "a"; "b" ] engines
      in
      let ring = Ring.create [ "a"; "b" ] in
      let tier = Tier.create ~ring ~shards () in
      let line = compile_line "alexnet" in
      (* Cold: routed to the owner and computed. *)
      let first = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "computed" (Json.String "miss")
        (field_exn "cache" first);
      Alcotest.(check int) "one compute" 1 (counter tier "computes");
      (* Warm: answered from the router's front LRU. *)
      let second = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "front-cache hit" (Json.String "hit")
        (field_exn "cache" second);
      Alcotest.(check int) "router hit counted" 1 (counter tier "router_hits");
      Alcotest.check json_t "same payload" (field_exn "result" first)
        (field_exn "result" second);
      (* A fresh router over the same (warm) shards: the owner's own
         cache answers, no new compute. *)
      let tier2 = Tier.create ~ring ~shards () in
      let third = response_of (Tier.handle_line tier2 line) in
      Alcotest.check json_t "shard-cache hit" (Json.String "hit")
        (field_exn "cache" third);
      Alcotest.(check int) "no compute" 0 (counter tier2 "computes");
      Alcotest.(check int) "shard hit counted" 1 (counter tier2 "shard_hits");
      Alcotest.check json_t "same payload again" (field_exn "result" first)
        (field_exn "result" third))

let test_tier_peer_fill () =
  with_engines 2 (fun engines ->
      let a_engine = List.nth engines 0 in
      let shards = List.map2 local_shard [ "a"; "b" ] engines in
      let two_ring = Ring.create [ "a"; "b" ] in
      (* Warm shard [a] alone with a request the two-shard ring will
         assign to [b] — the resharding scenario. *)
      let line = request_owned_by two_ring "b" in
      let warm =
        Tier.create ~ring:(Ring.create [ "a" ])
          ~shards:[ local_shard "a" a_engine ]
          ()
      in
      let warm_resp = response_of (Tier.handle_line warm line) in
      (* Now the two-shard tier: owner [b] misses, the peer probe finds
         it in [a]'s cache, and [b] gets backfilled. *)
      let tier = Tier.create ~ring:two_ring ~shards () in
      let filled = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "peer-filled" (Json.String "peer")
        (field_exn "cache" filled);
      Alcotest.(check int) "peer fill counted" 1 (counter tier "peer_fills");
      Alcotest.(check int) "no duplicate compile" 0 (counter tier "computes");
      Alcotest.check json_t "payload identical across shards"
        (field_exn "result" warm_resp) (field_exn "result" filled);
      (* The backfill seeded the owner: a fresh router now hits [b]
         directly. *)
      let tier2 = Tier.create ~ring:two_ring ~shards () in
      let after = response_of (Tier.handle_line tier2 line) in
      Alcotest.check json_t "owner hit after backfill" (Json.String "hit")
        (field_exn "cache" after);
      Alcotest.(check int) "no peer probe needed" 0 (counter tier2 "peer_probes"))

let test_tier_failover () =
  with_engines 1 (fun engines ->
      let good = local_shard "b" (List.hd engines) in
      let bad = Shard.local ~name:"a" (fun _ -> failwith "boom") in
      let ring = Ring.create [ "a"; "b" ] in
      let tier = Tier.create ~ring ~shards:[ bad; good ] () in
      (* A request owned by the broken shard still gets answered. *)
      let line = request_owned_by ring "a" in
      let resp = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "answered despite dead owner" (Json.Bool true)
        (field_exn "ok" resp))

let test_tier_shedding () =
  with_engines 1 (fun engines ->
      let engine = List.hd engines in
      let release = Mutex.create () in
      Mutex.lock release;
      let gate_open = ref false in
      let slow line =
        if !gate_open then Svc.Engine.handle_line ~timing:true engine line
        else begin
          Mutex.lock release;
          Mutex.unlock release;
          Svc.Engine.handle_line ~timing:true engine line
        end
      in
      let shard = Shard.local ~name:"a" ~max_inflight:1 slow in
      let tier = Tier.create ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] () in
      let line = compile_line "alexnet" in
      let first = Thread.create (fun () -> Tier.handle_line tier line) () in
      Thread.delay 0.1;
      (* The single in-flight slot is taken: the router sheds with a
         structured overloaded error instead of queueing. *)
      let shed = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "shed is an error" (Json.Bool false)
        (field_exn "ok" shed);
      Alcotest.check json_t "structured kind" (Json.String "overloaded")
        (field_exn "kind" shed);
      Alcotest.(check int) "shed counted" 1 (counter tier "shed");
      gate_open := true;
      Mutex.unlock release;
      match Thread.join first with () -> ())

let test_tier_cache_ops_through_front () =
  with_engines 2 (fun engines ->
      let shards = List.map2 local_shard [ "a"; "b" ] engines in
      let tier =
        Tier.create ~ring:(Ring.create [ "a"; "b" ]) ~shards ()
      in
      let digest = String.make 32 'd' in
      let put =
        Printf.sprintf {|{"op":"cache_put","digest":"%s","payload":{"x":7}}|}
          digest
      in
      let stored = response_of (Tier.handle_line tier put) in
      Alcotest.check json_t "stored" (Json.Bool true)
        (field_exn "stored" (field_exn "result" stored));
      let got =
        response_of
          (Tier.handle_line tier
             (Printf.sprintf {|{"op":"cache_get","digest":"%s"}|} digest))
      in
      Alcotest.check json_t "round-trips" (Json.Obj [ ("x", Json.Int 7) ])
        (field_exn "result" got);
      (* An unknown digest is a plain miss end-to-end. *)
      let missing =
        response_of
          (Tier.handle_line tier
             (Printf.sprintf {|{"op":"cache_get","digest":"%s"}|}
                (String.make 32 'e')))
      in
      Alcotest.check json_t "not cached" (Json.Bool false)
        (field_exn "ok" missing))

(* --- resilience: retries, deadlines, hedging, integrity, drain --- *)

let contains ~needle hay =
  let nlen = String.length needle and hlen = String.length hay in
  let rec scan i =
    i + nlen <= hlen && (String.sub hay i nlen = needle || scan (i + 1))
  in
  scan 0

(* A transient compute failure is retried on the same shard and masked
   from the client. *)
let test_tier_retries_mask_transient () =
  with_engines 1 (fun engines ->
      let engine = List.hd engines in
      let compile_calls = ref 0 in
      let handler line =
        if contains ~needle:{|"op":"compile"|} line then begin
          incr compile_calls;
          if !compile_calls = 1 then failwith "transient"
          else Svc.Engine.handle_line ~timing:true engine line
        end
        else Svc.Engine.handle_line ~timing:true engine line
      in
      let shard = Shard.local ~name:"a" handler in
      let tier =
        Tier.create ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] ~retries:2
          ~retry_backoff_ms:1. ()
      in
      let resp = response_of (Tier.handle_line tier (compile_line "alexnet")) in
      Alcotest.check json_t "masked from the client" (Json.Bool true)
        (field_exn "ok" resp);
      Alcotest.(check int) "one retry counted" 1 (counter tier "retries");
      Alcotest.(check int) "two compile attempts" 2 !compile_calls)

(* The forwarded envelope carries the route digest as id, asks for a
   sum, and propagates the *remaining* deadline, not the original. *)
(* A client that sets [checksum] gets the [sum] one [lcmm serve] process
   sends: a 2-shard tier re-renders every reply from its payload, cold
   and from its front cache alike, and must add the same digest; without
   [checksum] no reply carries one. *)
let test_tier_client_checksum () =
  with_engines 3 (fun engines ->
      let reference = List.nth engines 2 in
      let shards =
        List.map2 local_shard [ "a"; "b" ] [ List.nth engines 0; List.nth engines 1 ]
      in
      let tier = Tier.create ~ring:(Ring.create [ "a"; "b" ]) ~shards () in
      let line =
        {|{"op":"compile","model":"squeezenet","dtype":"i8","checksum":true}|}
      in
      let sum_of resp = field_exn "sum" resp in
      let want =
        sum_of (response_of (Svc.Engine.handle_line ~timing:false reference line))
      in
      Alcotest.check json_t "cold reply carries serve's sum" want
        (sum_of (response_of (Tier.handle_line tier line)));
      Alcotest.check json_t "cached reply carries serve's sum" want
        (sum_of (response_of (Tier.handle_line tier line)));
      Alcotest.(check bool) "no checksum, no sum" true
        (Json.member_opt "sum"
           (response_of (Tier.handle_line tier (compile_line "squeezenet")))
        = None))

let test_tier_forwarded_envelope () =
  with_engines 1 (fun engines ->
      let engine = List.hd engines in
      let recorded = ref [] in
      let handler line =
        recorded := line :: !recorded;
        Svc.Engine.handle_line ~timing:true engine line
      in
      let shard = Shard.local ~name:"a" handler in
      let tier =
        Tier.create ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] ()
      in
      let line =
        {|{"op":"compile","model":"alexnet","dtype":"i8","deadline_ms":5000}|}
      in
      let digest =
        match Svc.Protocol.request_of_line line with
        | Ok env -> (
          match Svc.Engine.route_digest env.Svc.Protocol.request with
          | Ok (Some d) -> d
          | _ -> Alcotest.fail "expected a digest")
        | Error msg -> Alcotest.fail msg
      in
      let resp = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "answered" (Json.Bool true) (field_exn "ok" resp);
      let forwarded_compile =
        match
          List.find_opt (contains ~needle:{|"op":"compile"|}) !recorded
        with
        | Some l -> response_of l
        | None -> Alcotest.fail "no compile forwarded"
      in
      Alcotest.check json_t "digest rides as id" (Json.String digest)
        (field_exn "id" forwarded_compile);
      Alcotest.check json_t "sum requested" (Json.Bool true)
        (field_exn "checksum" forwarded_compile);
      (match field_exn "deadline_ms" forwarded_compile with
      | Json.Float ms ->
        Alcotest.(check bool)
          (Printf.sprintf "remaining budget (%.3f ms) below the original" ms)
          true
          (ms > 0. && ms < 5000.)
      | v -> Alcotest.failf "deadline_ms: %s" (Json.to_string v));
      (* And the reply the shard produced carried a sum that verified:
         no invalid replies were counted. *)
      Alcotest.(check int) "reply validated" 0 (counter tier "invalid_replies"))

(* A budget that expires inside the router is answered by the router:
   structured deadline error, no compute spent on it. *)
let test_tier_deadline_expires_in_router () =
  with_engines 1 (fun engines ->
      let engine = List.hd engines in
      let compile_calls = ref 0 in
      let handler line =
        if contains ~needle:{|"op":"cache_get"|} line then begin
          Thread.delay 0.06;
          Svc.Engine.handle_line ~timing:true engine line
        end
        else begin
          if contains ~needle:{|"op":"compile"|} line then incr compile_calls;
          Svc.Engine.handle_line ~timing:true engine line
        end
      in
      let shard = Shard.local ~name:"a" handler in
      let tier =
        Tier.create ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] ()
      in
      let resp =
        response_of
          (Tier.handle_line tier
             {|{"op":"compile","model":"alexnet","dtype":"i8","deadline_ms":20}|})
      in
      Alcotest.check json_t "an error" (Json.Bool false) (field_exn "ok" resp);
      Alcotest.check json_t "structured deadline kind"
        (Json.String "deadline") (field_exn "kind" resp);
      Alcotest.(check int) "no compute attempted" 0 !compile_calls;
      Alcotest.(check int) "counted" 1 (counter tier "deadline_errors"))

(* A slow primary is hedged against the next shard in ring order; the
   hedge's validated reply answers the request. *)
let test_tier_hedging () =
  with_engines 2 (fun engines ->
      let e_a = List.nth engines 0 and e_b = List.nth engines 1 in
      let ring = Ring.create [ "a"; "b" ] in
      let line = request_owned_by ring "a" in
      let slow_handler l =
        if contains ~needle:{|"op":"compile"|} l then Thread.delay 0.4;
        Svc.Engine.handle_line ~timing:true e_a l
      in
      let shards =
        [ Shard.local ~name:"a" slow_handler; local_shard "b" e_b ]
      in
      let tier = Tier.create ~ring ~shards ~hedge_ms:50. () in
      let resp = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "answered" (Json.Bool true) (field_exn "ok" resp);
      Alcotest.(check int) "hedge launched" 1 (counter tier "hedges");
      Alcotest.(check int) "hedge won" 1 (counter tier "hedge_wins");
      (* Let the abandoned primary finish before the engines shut down. *)
      Thread.delay 0.5)

(* A corrupted reply is rejected by validation, penalized, and never
   served as a success. *)
let test_tier_rejects_corrupt_reply () =
  with_engines 1 (fun engines ->
      let engine = List.hd engines in
      let handler line =
        let reply = Svc.Engine.handle_line ~timing:true engine line in
        if contains ~needle:{|"op":"compile"|} line then
          String.trim reply ^ "!"
        else reply
      in
      let shard = Shard.local ~name:"a" handler in
      let tier =
        Tier.create ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] ()
      in
      let resp = response_of (Tier.handle_line tier (compile_line "alexnet")) in
      Alcotest.check json_t "not served as success" (Json.Bool false)
        (field_exn "ok" resp);
      Alcotest.(check bool) "invalid replies counted" true
        (counter tier "invalid_replies" >= 1))

(* Chaos at probability 1.0: every physical call faults, and with no
   retry budget the request surfaces a structured error — never a
   damaged success. *)
let test_tier_chaos_injection () =
  with_engines 1 (fun engines ->
      let shard = local_shard "a" (List.hd engines) in
      let spec =
        match Fault.Spec.of_string "seed=3,trunc:1.0" with
        | Ok s -> s
        | Error msg -> Alcotest.fail msg
      in
      let chaos =
        match Lcmm_tier.Chaos.create spec with
        | Some c -> c
        | None -> Alcotest.fail "expected transport faults"
      in
      let tier =
        Tier.create ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] ~chaos ()
      in
      let resp = response_of (Tier.handle_line tier (compile_line "alexnet")) in
      Alcotest.check json_t "structured failure" (Json.Bool false)
        (field_exn "ok" resp);
      Alcotest.(check bool) "truncations counted" true
        (match List.assoc_opt "injected_truncs"
                 (Lcmm_tier.Chaos.counter_list chaos)
         with
        | Some n -> n >= 1
        | None -> false);
      Alcotest.(check bool) "rejected as invalid" true
        (counter tier "invalid_replies" >= 1))

(* Drain: stop admitting (except stats), finish in-flight, flush the
   front LRU back to the owners. *)
let test_tier_drain () =
  with_engines 1 (fun engines ->
      let shard = local_shard "a" (List.hd engines) in
      let tier =
        Tier.create ~ring:(Ring.create [ "a" ]) ~shards:[ shard ] ()
      in
      let line = compile_line "alexnet" in
      let warm = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "warm" (Json.Bool true) (field_exn "ok" warm);
      Alcotest.(check int) "front LRU flushed to the owner" 1
        (Tier.drain ~timeout_s:1. tier);
      Alcotest.check json_t "draining" (Json.Bool true)
        (field_exn "draining" (tier_stats tier));
      let refused = response_of (Tier.handle_line tier line) in
      Alcotest.check json_t "refused" (Json.Bool false)
        (field_exn "ok" refused);
      Alcotest.check json_t "unavailable kind" (Json.String "unavailable")
        (field_exn "kind" refused);
      Alcotest.check json_t "names the drain"
        (Json.String "unavailable: tier is draining")
        (field_exn "error" refused);
      (* stats stays open so the operator can watch the drain. *)
      let stats = response_of (Tier.handle_line tier {|{"op":"stats"}|}) in
      Alcotest.check json_t "stats still answered" (Json.Bool true)
        (field_exn "ok" stats);
      Alcotest.(check int) "flush counted" 1 (counter tier "flushed"))

(* --- load generator --- *)

(* The rung criterion [Loadgen.find_saturation] documents: sustains the
   offered rate, meets the p99 SLO and sheds at most 5%. *)
let keeps_up ~slo_p99_ms (r : Loadgen.result) =
  r.achieved_rps >= 0.9 *. r.offered_rps
  && r.p99_ms <= slo_p99_ms
  && float_of_int r.shed <= 0.05 *. float_of_int (max 1 r.sent)

let test_loadgen_divergence () =
  let good = ok_line (Json.Int 1) in
  let bad = ok_line (Json.Int 2) in
  let r_diverging =
    Loadgen.run
      ~handler:(fun _ -> bad)
      ~mix:[ "x" ] ~rps:100. ~duration_s:0.1 ~threads:2
      ~reference:(fun _ -> Some good)
      ()
  in
  Alcotest.(check int) "every success diverges" r_diverging.Loadgen.sent
    r_diverging.Loadgen.divergent;
  let r_matching =
    Loadgen.run
      ~handler:(fun _ -> good)
      ~mix:[ "x" ] ~rps:100. ~duration_s:0.1 ~threads:2
      ~reference:(fun _ -> Some good)
      ()
  in
  Alcotest.(check int) "byte-identical successes pass" 0
    r_matching.Loadgen.divergent;
  let r_unchecked =
    Loadgen.run
      ~handler:(fun _ -> bad)
      ~mix:[ "x" ] ~rps:100. ~duration_s:0.1 ~threads:2
      ~reference:(fun _ -> None)
      ()
  in
  Alcotest.(check int) "unmapped requests not checked" 0
    r_unchecked.Loadgen.divergent

let test_loadgen_counts_and_percentiles () =
  let handler _line = ok_line (Json.Int 1) in
  let r =
    Loadgen.run ~handler ~mix:[ "x"; "y" ] ~rps:500. ~duration_s:0.3
      ~threads:4 ()
  in
  Alcotest.(check int) "all requests sent" 150 r.Loadgen.sent;
  Alcotest.(check int) "all ok" r.Loadgen.sent r.Loadgen.ok;
  Alcotest.(check int) "no sheds" 0 r.Loadgen.shed;
  Alcotest.(check bool) "percentiles ordered" true
    (r.Loadgen.p50_ms <= r.Loadgen.p99_ms
    && r.Loadgen.p99_ms <= r.Loadgen.p999_ms
    && r.Loadgen.p999_ms <= r.Loadgen.max_ms);
  Alcotest.(check bool) "keeps up" true (keeps_up ~slo_p99_ms:1000. r)

(* One sender thread against a 5 ms handler at 400 rps serves a request
   every 5 ms while they fall due every 2.5 ms: the backlog grows for
   the whole run, and the late requests' queueing must show up in their
   latency rather than only the 5 ms of service. *)
let test_loadgen_counts_backlog () =
  let handler _ =
    Unix.sleepf 0.005;
    {|{"ok":true}|}
  in
  let r =
    Loadgen.run ~handler ~mix:[ "x" ] ~rps:400. ~duration_s:0.25 ~threads:1 ()
  in
  Alcotest.(check int) "all requests sent" 100 r.Loadgen.sent;
  Alcotest.(check bool)
    (Printf.sprintf "queueing counted (max %.1f ms)" r.Loadgen.max_ms)
    true
    (r.Loadgen.max_ms >= 100.)

let test_loadgen_classifies_sheds () =
  let handler _line =
    Dnn_serial.Wire.to_line
      (Dnn_serial.Wire.error ~op:"compile" "overloaded: full")
  in
  let r =
    Loadgen.run ~handler ~mix:[ "x" ] ~rps:200. ~duration_s:0.2 ~threads:2 ()
  in
  Alcotest.(check int) "everything shed" r.Loadgen.sent r.Loadgen.shed;
  Alcotest.(check bool) "does not keep up" false
    (keeps_up ~slo_p99_ms:1000. r)

let test_loadgen_zoo_mix_deterministic () =
  let m1 = Loadgen.zoo_mix () and m2 = Loadgen.zoo_mix () in
  Alcotest.(check (list string)) "stable mix" m1 m2;
  Alcotest.(check bool) "non-empty" true (List.length m1 > 1)

(* A handler that serves one request per 2 ms on one sender thread
   saturates at 500 rps.  Whatever rung host jitter first fails, the
   ladder must double from the start rate up to one failed rung, then
   bisect exactly three rungs inside the bracket it found, and report
   the best sustained rate as the knee. *)
let test_loadgen_saturation_bisects () =
  let handler _ =
    Unix.sleepf 0.002;
    {|{"ok":true}|}
  in
  let slo_p99_ms = 1000. in
  let keeps = keeps_up ~slo_p99_ms in
  let knee, ladder =
    Loadgen.find_saturation ~handler ~mix:[ "x" ] ~start_rps:100.
      ~duration_s:0.2 ~slo_p99_ms ~threads:1 ~max_steps:5 ()
  in
  let rec climb rps = function
    | (r : Loadgen.result) :: rest ->
      Alcotest.(check (float 0.)) "doubling rung" rps r.Loadgen.offered_rps;
      if keeps r then climb (rps *. 2.) rest else (rps /. 2., rps, rest)
    | [] -> Alcotest.fail "no rung failed below 1600 rps"
  in
  let lo, hi, bisection = climb 100. ladder in
  Alcotest.(check bool) "the start rate kept up" true (lo >= 100.);
  Alcotest.(check int) "three bisection rungs" 3 (List.length bisection);
  ignore
    (List.fold_left
       (fun (lo, hi) (r : Loadgen.result) ->
         Alcotest.(check (float 1e-9)) "midpoint" ((lo +. hi) /. 2.)
           r.Loadgen.offered_rps;
         if keeps r then (r.Loadgen.offered_rps, hi)
         else (lo, r.Loadgen.offered_rps))
       (lo, hi) bisection);
  Alcotest.(check (float 1e-9)) "knee = best sustained rate"
    (List.fold_left
       (fun best (r : Loadgen.result) ->
         if keeps r then Float.max best r.Loadgen.achieved_rps else best)
       0. ladder)
    knee

(* --- tier answers what serve answers --- *)

(* Every key a request object may carry, with the values the committed
   field requests and the default encodings give it: [(kind, key)]
   pairs, where a kind is an op's top level, ["envelope"] (id aside),
   ["options"] or ["tenant"].  The field requests set every protocol
   field off its default and {!Svc.Protocol.envelope_to_json} encodes
   every field at its default that has an encoding there, so a field
   added to a table is drawn with no edit here. *)
let field_pools () =
  let pools = Hashtbl.create 64 in
  let add kind key v =
    let seen =
      Option.value ~default:[] (Hashtbl.find_opt pools (kind, key))
    in
    if not (List.mem v seen) then Hashtbl.replace pools (kind, key) (v :: seen)
  in
  let fields = function Json.Obj kv -> kv | _ -> [] in
  let rec walk doc =
    let op =
      match Json.member_opt "op" doc with
      | Some (Json.String op) -> op
      | _ -> ""
    in
    List.iter
      (fun (key, v) ->
        match (key, v) with
        | ("op" | "id"), _ -> ()
        | ("deadline_ms" | "checksum"), _ -> add "envelope" key v
        | "options", _ ->
          List.iter (fun (k, x) -> add "options" k x) (fields v)
        | "tenants", Json.List ts ->
          List.iter
            (fun tn -> List.iter (fun (k, x) -> add "tenant" k x) (fields tn))
            ts
        | "requests", Json.List subs -> List.iter walk subs
        | _ -> add op key v)
      (fields doc)
  in
  let defaults =
    [ {|{"op":"compile","model":"alexnet"}|};
      {|{"op":"simulate","model":"squeezenet","images":2}|};
      {|{"op":"run","tenants":[{"model":"alexnet"}]}|} ]
  in
  List.iter
    (fun line ->
      match Svc.Protocol.request_of_line line with
      | Ok env -> walk (Svc.Protocol.envelope_to_json env)
      | Error msg -> Alcotest.failf "default request %s: %s" line msg)
    defaults;
  List.iter
    (fun line -> Result.iter walk (Json.of_string line))
    (Helpers.read_lines "golden/protocol_fields.requests.ndjson");
  pools

(* Values no field accepts, or accepts only out of range.  No small
   positive number: a tiny deadline would race the compute. *)
let junk =
  [ Json.Null; Json.Bool true; Json.Int 0; Json.Int (-1); Json.Float (-2.5);
    Json.String "x"; Json.List []; Json.Obj [] ]

let random_id st =
  match Random.State.int st 9 with
  | 0 -> Json.Int (Random.State.int st 1000)
  | 1 -> Json.Float 1.25
  | 2 -> Json.String (Printf.sprintf "r%d" (Random.State.int st 100))
  | 3 -> Json.Bool false
  | 4 -> Json.Null
  | 5 -> Json.List [ Json.Obj [ ("k", Json.Int 1) ] ]
  | 6 -> Json.Obj [ ("n", Json.List [ Json.Int 2 ]) ]
  | 7 -> Json.List []
  | _ -> Json.String "\"quoted\" \\ id"

let pick st l = List.nth l (Random.State.int st (List.length l))

(* A request object of [op]: a random subset of the keys the pools hold
   for it at values seen; one request in three is hostile and draws a
   quarter of its values from [junk]. *)
let random_request pools st op =
  let hostile = Random.State.int st 3 = 0 in
  let value kind key =
    let seen = Hashtbl.find pools (kind, key) in
    if hostile && Random.State.int st 4 = 0 then pick st junk else pick st seen
  in
  (* [keep] names the keys always drawn. *)
  let subset kind keep =
    Hashtbl.fold
      (fun (k, key) _ acc -> if k = kind then key :: acc else acc)
      pools []
    |> List.sort compare
    |> List.filter (fun key -> keep key || Random.State.bool st)
    |> List.map (fun key -> (key, value kind key))
  in
  let options () =
    if hostile && Random.State.int st 4 = 0 then pick st junk
    else Json.Obj (subset "options" (fun _ -> false))
  in
  let body =
    match op with
    | "run" ->
      let tenant () = Json.Obj (subset "tenant" (( = ) "model")) in
      let tenants =
        List.init (1 + Random.State.int st 2) (fun _ -> tenant ())
      in
      ("tenants", Json.List tenants)
      :: ("options", options ())
      :: subset op (fun _ -> false)
    | "models" -> []
    | _ -> ("options", options ()) :: subset op (( = ) "model")
  in
  let id = if Random.State.bool st then [ ("id", random_id st) ] else [] in
  Json.Obj
    ((("op", Json.String op) :: id) @ subset "envelope" (fun _ -> false) @ body)

let random_line pools st =
  let leaf () =
    random_request pools st
      (pick st [ "compile"; "simulate"; "run"; "models" ])
  in
  match Random.State.int st 12 with
  | 0 ->
    (* A truncated record. *)
    let line = Json.to_string (leaf ()) in
    String.sub line 0 (Random.State.int st (String.length line))
  | 1 ->
    pick st
      [ "[1,2]"; "42"; {|"compile"|}; {|{"op":"nope"}|}; {|{"id":3}|}; "{" ]
  | 2 | 3 ->
    let subs = List.init (Random.State.int st 4) (fun _ -> leaf ()) in
    let subs =
      if Random.State.int st 6 = 0 then
        Json.Obj [ ("op", Json.String "batch"); ("requests", Json.List []) ]
        :: subs
      else subs
    in
    let id = if Random.State.bool st then [ ("id", random_id st) ] else [] in
    let checksum =
      if Random.State.bool st then [ ("checksum", Json.Bool true) ] else []
    in
    Json.to_string
      (Json.Obj
         ((("op", Json.String "batch") :: id) @ checksum
         @ [ ("requests", Json.List subs) ]))
  | _ -> Json.to_string (leaf ())

(* With timing off a serve reply is a pure function of its request, and
   a 2-shard tier must give the same bytes for every envelope: it
   parses, routes, forwards and re-renders what serve renders directly.
   [stats], [cache_get] and [cache_put] answer differently by design
   (fleet counters, front-cache probes) and are never drawn. *)
let test_tier_matches_serve () =
  let pools = field_pools () in
  let st = Random.State.make [| 20261020 |] in
  with_engines 3 (fun engines ->
      let reference = List.hd engines in
      let shards = List.map2 local_shard [ "a"; "b" ] (List.tl engines) in
      let tier =
        Tier.create ~timing:false ~ring:(Ring.create [ "a"; "b" ]) ~shards ()
      in
      for _ = 1 to 240 do
        let line = random_line pools st in
        Alcotest.(check string)
          (Printf.sprintf "tier = serve for %s" line)
          (Svc.Engine.handle_line ~timing:false reference line)
          (Tier.handle_line tier line)
      done)

let suite =
  [ Alcotest.test_case "ring: deterministic across creation order" `Quick
      test_ring_deterministic;
    Alcotest.test_case "ring: balances 10k digests within 35%" `Quick
      test_ring_balance;
    Alcotest.test_case "ring: adding a shard moves ~1/N keys, all to it"
      `Quick test_ring_minimal_movement;
    Alcotest.test_case "ring: successors start at owner, cover all shards"
      `Quick test_ring_successors;
    Alcotest.test_case "ring: rejects empty and duplicate members" `Quick
      test_ring_validation;
    Alcotest.test_case "tier: bad knobs rejected before anything runs" `Quick
      test_bad_knobs_rejected_early;
    Alcotest.test_case "shard: in-flight gate sheds, then recovers" `Quick
      test_shard_inflight_gate;
    Alcotest.test_case "shard: breaker opens after repeated failures" `Quick
      test_shard_breaker_opens;
    Alcotest.test_case
      "shard: breaker walks closed->open->half-open->closed" `Quick
      test_shard_breaker_half_open_sequence;
    Alcotest.test_case "shard: half-open admits exactly one probe call"
      `Quick test_shard_half_open_single_probe;
    Alcotest.test_case "shard: full gate at an open circuit is unavailable"
      `Quick test_shard_full_gate_open_circuit;
    Alcotest.test_case "shard: late failure keeps the trip's cooldown"
      `Quick test_shard_late_failure_keeps_cooldown;
    Alcotest.test_case "tier: front LRU and shard cache tiers" `Quick
      test_tier_cache_tiers;
    Alcotest.test_case "tier: peer fill after resharding, with backfill"
      `Quick test_tier_peer_fill;
    Alcotest.test_case "tier: fails over around a dead owner" `Quick
      test_tier_failover;
    Alcotest.test_case "tier: sheds with a structured overloaded error"
      `Quick test_tier_shedding;
    Alcotest.test_case "tier: cache_get/cache_put through the front" `Quick
      test_tier_cache_ops_through_front;
    Alcotest.test_case "tier: retries mask a transient failure" `Quick
      test_tier_retries_mask_transient;
    Alcotest.test_case "tier: forwards digest id, sum, remaining deadline"
      `Quick test_tier_forwarded_envelope;
    Alcotest.test_case "tier: a client's checksum gets serve's sum" `Quick
      test_tier_client_checksum;
    Alcotest.test_case "tier: expired deadline answered by the router"
      `Quick test_tier_deadline_expires_in_router;
    Alcotest.test_case "tier: hedges a slow primary" `Quick test_tier_hedging;
    Alcotest.test_case "tier: rejects a corrupted reply" `Quick
      test_tier_rejects_corrupt_reply;
    Alcotest.test_case "tier: chaos injection surfaces structured errors"
      `Quick test_tier_chaos_injection;
    Alcotest.test_case "tier: drain refuses, finishes, flushes" `Quick
      test_tier_drain;
    Alcotest.test_case "tier: answers what serve answers, 240 envelopes"
      `Quick test_tier_matches_serve;
    Alcotest.test_case "loadgen: open-loop counts and percentiles" `Quick
      test_loadgen_counts_and_percentiles;
    Alcotest.test_case "loadgen: classifies structured sheds" `Quick
      test_loadgen_classifies_sheds;
    Alcotest.test_case "loadgen: a backlog's queueing is latency" `Quick
      test_loadgen_counts_backlog;
    Alcotest.test_case "loadgen: zoo mix is deterministic" `Quick
      test_loadgen_zoo_mix_deterministic;
    Alcotest.test_case "loadgen: counts divergence from a reference" `Quick
      test_loadgen_divergence;
    Alcotest.test_case "loadgen: saturation ladder bisects its knee" `Quick
      test_loadgen_saturation_bisects ]
