(* Consecutive-failure circuit breaker: [threshold] counted failures in
   a row open the circuit for [cooldown_s]; after that exactly one
   probe call is admitted (half-open) and its outcome closes or
   re-opens the circuit.  A pure state machine — the caller holds its
   own lock and passes the clock. *)

type state = Closed | Open of float (* shed until *) | Half_open

type t = {
  threshold : int;
  cooldown_s : float;
  mutable state : state;
  mutable failures : int;  (* consecutive counted failures *)
  mutable trips : int;
  mutable shed : int;
}

type admission = Pass | Probe | Shed_open of float | Shed_probing

let create ~threshold ~cooldown_s =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  if cooldown_s <= 0. then
    invalid_arg "Breaker.create: cooldown_s must be positive";
  { threshold; cooldown_s; state = Closed; failures = 0; trips = 0; shed = 0 }

let admit t ~now =
  match t.state with
  | Closed -> Pass
  | Open until when now >= until ->
    t.state <- Half_open;
    Probe
  | Open until ->
    t.shed <- t.shed + 1;
    Shed_open (until -. now)
  | Half_open ->
    t.shed <- t.shed + 1;
    Shed_probing

let trip t ~now =
  t.state <- Open (now +. t.cooldown_s);
  t.trips <- t.trips + 1

let record t ~now ~failed =
  if not failed then begin
    t.state <- Closed;
    t.failures <- 0
  end
  else begin
    t.failures <- t.failures + 1;
    match t.state with
    | Half_open -> trip t ~now
    | Closed when t.failures >= t.threshold -> trip t ~now
    | Closed | Open _ -> ()
  end

let state t =
  match t.state with
  | Closed -> `Closed
  | Open _ -> `Open
  | Half_open -> `Half_open

let cooldown_left t ~now =
  match t.state with
  | Open until when now < until -> until -. now
  | Open _ | Closed | Half_open -> 0.

let failures t = t.failures

let trips t = t.trips

let shed t = t.shed
