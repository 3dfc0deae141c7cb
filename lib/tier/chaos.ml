(* Seeded transport-fault decisions for the tier's router->shard path.

   The decision machinery is [Fault.Injector]'s counter-based splitmix64
   draws: every action is a pure function of (spec seed, request key,
   attempt), where the key derives from the request's route digest and
   its occurrence number in the stream.  Wall-clock time, thread
   interleaving and shard identity never enter a draw, so the same
   request stream under the same spec replays the identical fault
   sequence — the property the chaos bench's reproducibility gate
   checks.

   Only digest-addressed request traffic draws faults: stats broadcasts
   and drain flushes carry no chaos key and pass untouched (they
   measure or save real state; faulting them would couple it to the
   fault schedule). *)

module Spec = Fault.Spec
module Injector = Fault.Injector

type counters = {
  mutable delays : int;
  mutable hangs : int;
  mutable truncs : int;
  mutable corrupts : int;
  mutable resets : int;
  mutable slowed : int;
}

type t = {
  spec : Spec.t;
  inj : Injector.t;
  seqs : (string, int) Hashtbl.t; (* digest -> occurrences so far *)
  mutex : Mutex.t;
  c : counters;
}

let create spec =
  if not (Spec.has_transport_faults spec) then None
  else
    Some
      { spec;
        inj = Injector.create spec;
        seqs = Hashtbl.create 64;
        mutex = Mutex.create ();
        c =
          { delays = 0; hangs = 0; truncs = 0; corrupts = 0; resets = 0;
            slowed = 0 } }

let spec t = t.spec

let with_lock t fn =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) fn

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> 0

(* The chaos key for the next occurrence of [digest]: 48 bits of the
   digest folded with the occurrence number.  The injector finalises
   the key through splitmix64, so this only has to separate requests,
   not mix them. *)
let key t ~digest =
  with_lock t (fun () ->
      let n =
        match Hashtbl.find_opt t.seqs digest with Some n -> n | None -> 0
      in
      Hashtbl.replace t.seqs digest (n + 1);
      let base = ref 0 in
      String.iteri
        (fun i c -> if i < 12 then base := (!base * 16) + hex_value c)
        digest;
      (!base * 1_000_003) + n)

(* The action for attempt [attempt] of request [key]; counted at draw
   time so the counters are as deterministic as the draws. *)
let action t ~key ~attempt =
  let act = Injector.transport_action t.inj ~key ~attempt in
  (match act with
  | Injector.Pass -> ()
  | Injector.Delay _ -> with_lock t (fun () -> t.c.delays <- t.c.delays + 1)
  | Injector.Hang -> with_lock t (fun () -> t.c.hangs <- t.c.hangs + 1)
  | Injector.Trunc -> with_lock t (fun () -> t.c.truncs <- t.c.truncs + 1)
  | Injector.Corrupt ->
    with_lock t (fun () -> t.c.corrupts <- t.c.corrupts + 1)
  | Injector.Reset -> with_lock t (fun () -> t.c.resets <- t.c.resets + 1));
  act

let mangle t ~key ~attempt ~action line =
  Injector.mangle_line t.inj ~key ~attempt ~action line

let slow_factor t ~shard =
  let f = Injector.slow_factor t.inj ~shard in
  if f > 1. then with_lock t (fun () -> t.c.slowed <- t.c.slowed + 1);
  f

let counter_list t =
  with_lock t (fun () ->
      [ ("injected_delays", t.c.delays);
        ("injected_hangs", t.c.hangs);
        ("injected_truncs", t.c.truncs);
        ("injected_corrupts", t.c.corrupts);
        ("injected_resets", t.c.resets);
        ("slowed_calls", t.c.slowed) ])

let counters_json t =
  Dnn_serial.Json.Obj
    (("spec", Dnn_serial.Json.String (Spec.to_string t.spec))
    :: List.map (fun (k, v) -> (k, Dnn_serial.Json.Int v)) (counter_list t))
