(* Deterministic fault derivation.  Every stochastic decision is a pure
   hash of (seed, transfer key, purpose) — a counter-based RNG rather
   than a stateful stream — so an outcome never depends on the order in
   which the event loop happens to ask for it, and identical (spec,
   workload) pairs replay bit-identically. *)

type event =
  | Bank_loss of { at : float; tenant : int; bytes : int }
  | Abort of { at : float; tenant : int }

let event_time = function Bank_loss { at; _ } | Abort { at; _ } -> at

type t = {
  spec : Spec.t;
  events : event list; (* timeline, sorted by time (stable on spec order) *)
}

let create spec =
  let events =
    List.map
      (fun (b : Spec.bank_loss) ->
        Bank_loss { at = b.loss_at; tenant = b.loss_tenant; bytes = b.loss_bytes })
      spec.Spec.bank_losses
    @ List.map
        (fun (a : Spec.abort_event) ->
          Abort { at = a.abort_at; tenant = a.abort_tenant })
        spec.Spec.aborts
    |> List.stable_sort (fun a b -> compare (event_time a) (event_time b))
  in
  { spec; events }

let spec t = t.spec
let events t = t.events
let max_retries t = t.spec.Spec.max_retries

(* splitmix64 finalizer. *)
let mix64 x =
  let x = Int64.logxor x (Int64.shift_right_logical x 33) in
  let x = Int64.mul x 0xff51afd7ed558ccdL in
  let x = Int64.logxor x (Int64.shift_right_logical x 33) in
  let x = Int64.mul x 0xc4ceb9fe1a85ec53L in
  Int64.logxor x (Int64.shift_right_logical x 33)

let hash t ~key ~salt =
  mix64
    (Int64.add
       (Int64.mul (Int64.of_int t.spec.Spec.seed) 0x9E3779B97F4A7C15L)
       (Int64.add
          (Int64.mul (Int64.of_int key) 0xBF58476D1CE4E5B9L)
          (Int64.of_int salt)))

(* Uniform in [0, 1): top 53 bits of the hash. *)
let unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let draw t ~key ~salt = unit_float (hash t ~key ~salt)

(* Stall injected when transfer [key] reaches the head of its channel;
   0 when the draw misses.  Jittered to 0.5–1.5x the configured mean. *)
let stall_seconds t ~key =
  let s = t.spec in
  if s.Spec.stall_prob <= 0. || s.Spec.stall_seconds <= 0. then 0.
  else if draw t ~key ~salt:1 < s.Spec.stall_prob then
    s.Spec.stall_seconds *. (0.5 +. draw t ~key ~salt:2)
  else 0.

(* How many consecutive attempts of transfer [key] fail before one
   succeeds (geometric in the per-attempt failure probability), capped
   one past the retry budget: a cap-valued draw means the transfer
   exhausts its retries and aborts the tenant. *)
let planned_failures t ~key =
  let s = t.spec in
  if s.Spec.fail_prob <= 0. then 0
  else begin
    let cap = s.Spec.max_retries + 1 in
    let rec loop i =
      if i >= cap then cap
      else if draw t ~key ~salt:(16 + i) < s.Spec.fail_prob then loop (i + 1)
      else i
    in
    loop 0
  end

let capped_backoff ~base ~cap ~attempt =
  Float.min (base *. (2. ** float_of_int attempt)) cap

(* The capped exponential delay with seeded jitter (1x–2x nominal). *)
let backoff_seconds t ~key ~attempt =
  let s = t.spec in
  capped_backoff ~base:s.Spec.backoff_base ~cap:s.Spec.backoff_cap ~attempt
  *. (1. +. draw t ~key ~salt:(64 + attempt))

(* Effective bandwidth multiplier at [now]: overlapping droop windows
   take the most severe factor. *)
let droop_factor t ~now =
  List.fold_left
    (fun acc (d : Spec.droop) ->
      if now >= d.Spec.droop_start && now < d.Spec.droop_start +. d.Spec.droop_duration
      then Float.min acc d.Spec.droop_factor
      else acc)
    1. t.spec.Spec.droops

(* Next instant after [now] at which the droop factor can change;
   infinity when none remain.  The event loop treats these boundaries
   as discrete events so rate changes land exactly on them. *)
let next_droop_boundary t ~now =
  List.fold_left
    (fun acc (d : Spec.droop) ->
      let consider acc tm = if tm > now && tm < acc then tm else acc in
      consider (consider acc d.Spec.droop_start)
        (d.Spec.droop_start +. d.Spec.droop_duration))
    infinity t.spec.Spec.droops

(* --- transport faults (serving tier router->shard path) --- *)

type transport_action = Pass | Delay of float | Hang | Trunc | Corrupt | Reset

(* Each router-level attempt of a request key gets an independent
   8-salt window, placed above the board-fault salts (1-2 stalls,
   16+ failures, 64+ backoff) so the two families never alias. *)
let t_salt ~attempt slot = 128 + (8 * attempt) + slot

(* Precedence hard-to-soft: a reset preempts a hang preempts a
   truncation preempts a corruption preempts a delay.  Each family
   draws from its own salt so scaling one probability never flips
   another family's outcome for the same (key, attempt). *)
let transport_action t ~key ~attempt =
  let s = t.spec in
  let hit prob slot =
    prob > 0. && draw t ~key ~salt:(t_salt ~attempt slot) < prob
  in
  if hit s.Spec.t_reset_prob 0 then Reset
  else if hit s.Spec.t_hang_prob 1 then Hang
  else if hit s.Spec.t_trunc_prob 2 then Trunc
  else if hit s.Spec.t_corrupt_prob 3 then Corrupt
  else if s.Spec.t_delay_seconds > 0. && hit s.Spec.t_delay_prob 4 then
    Delay
      (s.Spec.t_delay_seconds *. (0.5 +. draw t ~key ~salt:(t_salt ~attempt 5)))
  else Pass

(* Damage a response line the way the wire would: cut it short or flip
   one byte.  Which prefix survives / which byte flips is itself a
   seeded draw, so damage replays bit-identically. *)
let mangle_line t ~key ~attempt ~action line =
  let n = String.length line in
  if n = 0 then line
  else
    match (action : transport_action) with
    | Trunc ->
      let keep =
        1 + int_of_float (draw t ~key ~salt:(t_salt ~attempt 6)
                          *. float_of_int (max 1 (n - 2)))
      in
      String.sub line 0 (min keep (n - 1))
    | Corrupt ->
      let pos =
        min (n - 1)
          (int_of_float (draw t ~key ~salt:(t_salt ~attempt 7) *. float_of_int n))
      in
      let b = Bytes.of_string line in
      Bytes.set b pos (Char.chr (Char.code line.[pos] lxor 1));
      Bytes.to_string b
    | Pass | Delay _ | Hang | Reset -> line

(* Deterministic per-shard slowdown; overlapping clauses take the worst. *)
let slow_factor t ~shard =
  List.fold_left
    (fun acc (sl : Spec.slow_shard) ->
      if sl.Spec.slow_index = shard then Float.max acc sl.Spec.slow_factor
      else acc)
    1. t.spec.Spec.slow_shards
