module Json = Dnn_serial.Json
module Metrics = Lcmm_service.Metrics

(* --- request mix --- *)

(* A deterministic zoo-sampled mix: the [models] smallest zoo graphs
   (small enough that a warmed tier answers in microseconds, so the
   generator measures the serving path, not the planner), each compiled
   at two dtypes, plus a stats probe — the read-mostly traffic shape a
   plan service sees.  Deterministic so every bench run and every shard
   count replays the identical request stream. *)
let zoo_mix ?(models = 4) () =
  let by_size =
    Models.Zoo.all
    |> List.map (fun e ->
           ( Dnn_graph.Graph.node_count (e.Models.Zoo.build ()),
             e.Models.Zoo.model_name ))
    |> List.sort compare
  in
  let picked =
    List.filteri (fun i _ -> i < models) by_size |> List.map snd
  in
  let compile name dtype =
    Json.to_string
      (Json.Obj
         [ ("op", Json.String "compile"); ("model", Json.String name);
           ("dtype", Json.String dtype) ])
  in
  List.concat_map
    (fun name -> [ compile name "i8"; compile name "i16" ])
    picked
  @ [ Json.to_string (Json.Obj [ ("op", Json.String "stats") ]) ]

(* --- open-loop generation --- *)

type result = {
  offered_rps : float;
  duration_s : float;
  sent : int;
  ok : int;
  errors : int;
  shed : int;
  divergent : int;
  achieved_rps : float;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
}

type outcome = Resp_ok | Resp_shed | Resp_error

let classify line =
  match Json.of_string line with
  | Error _ -> Resp_error
  | Ok doc -> (
    match Json.member_opt "ok" doc with
    | Some (Json.Bool true) -> Resp_ok
    | _ -> (
      match Json.member_opt "kind" doc with
      | Some (Json.String ("overloaded" | "unavailable")) -> Resp_shed
      | _ -> Resp_error))

type worker_acc = {
  mutable w_ok : int;
  mutable w_shed : int;
  mutable w_errors : int;
  mutable w_divergent : int;
  mutable lats : float list;  (* seconds, newest first *)
}

(* Open-loop: request [i] is due at [t0 + i/rps] regardless of how long
   earlier requests took — the schedule does not slow down when the
   server does, which is what exposes saturation (a closed loop would
   politely self-throttle and hide it). *)
let run ~handler ~mix ~rps ~duration_s ?(threads = 8) ?reference () =
  if rps <= 0. then invalid_arg "Loadgen.run: rps must be positive";
  if mix = [] then invalid_arg "Loadgen.run: empty mix";
  let lines = Array.of_list mix in
  let total = max 1 (int_of_float (rps *. duration_s)) in
  let next = Atomic.make 0 in
  let results = Mutex.create () in
  let merged =
    { w_ok = 0; w_shed = 0; w_errors = 0; w_divergent = 0; lats = [] }
  in
  let t0 = Unix.gettimeofday () in
  let worker () =
    let acc =
      { w_ok = 0; w_shed = 0; w_errors = 0; w_divergent = 0; lats = [] }
    in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let due = t0 +. (float_of_int i /. rps) in
        let now = Unix.gettimeofday () in
        if due > now then Unix.sleepf (due -. now);
        let request = lines.(i mod Array.length lines) in
        let response = handler request in
        (* Timed from [due], not from the send: a request that waits for
           a free sender thread is late, and its queueing is latency. *)
        acc.lats <- (Unix.gettimeofday () -. due) :: acc.lats;
        (match classify response with
        | Resp_ok ->
          acc.w_ok <- acc.w_ok + 1;
          (* A success that differs byte-for-byte from the fault-free
             reference answer is the one failure mode worse than an
             error: the client cannot tell it was served damaged
             goods. *)
          (match reference with
          | Some expected_of -> (
            match expected_of request with
            | Some expected when expected <> response ->
              acc.w_divergent <- acc.w_divergent + 1
            | Some _ | None -> ())
          | None -> ())
        | Resp_shed -> acc.w_shed <- acc.w_shed + 1
        | Resp_error -> acc.w_errors <- acc.w_errors + 1);
        loop ()
      end
    in
    loop ();
    Mutex.lock results;
    merged.w_ok <- merged.w_ok + acc.w_ok;
    merged.w_shed <- merged.w_shed + acc.w_shed;
    merged.w_errors <- merged.w_errors + acc.w_errors;
    merged.w_divergent <- merged.w_divergent + acc.w_divergent;
    merged.lats <- List.rev_append acc.lats merged.lats;
    Mutex.unlock results
  in
  let threads = List.init (max 1 threads) (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let elapsed = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let sent = merged.w_ok + merged.w_shed + merged.w_errors in
  let lats_ms =
    Array.of_list (List.rev_map (fun s -> s *. 1e3) merged.lats)
  in
  Array.sort compare lats_ms;
  let p q = if Array.length lats_ms = 0 then 0. else Metrics.percentile lats_ms q in
  { offered_rps = rps;
    duration_s;
    sent;
    ok = merged.w_ok;
    errors = merged.w_errors;
    shed = merged.w_shed;
    divergent = merged.w_divergent;
    achieved_rps = float_of_int sent /. elapsed;
    p50_ms = p 0.5;
    p99_ms = p 0.99;
    p999_ms = p 0.999;
    max_ms = (if Array.length lats_ms = 0 then 0. else lats_ms.(Array.length lats_ms - 1)) }

let result_to_json r =
  Json.Obj
    [ ("offered_rps", Json.Float r.offered_rps);
      ("duration_s", Json.Float r.duration_s);
      ("sent", Json.Int r.sent);
      ("ok", Json.Int r.ok);
      ("errors", Json.Int r.errors);
      ("shed", Json.Int r.shed);
      ("divergent", Json.Int r.divergent);
      ("achieved_rps", Json.Float r.achieved_rps);
      ("p50_ms", Json.Float r.p50_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("p999_ms", Json.Float r.p999_ms);
      ("max_ms", Json.Float r.max_ms) ]

(* A run "keeps up" when it sustains the offered rate, meets the p99 SLO
   and sheds almost nothing. *)
let keeps_up ~slo_p99_ms r =
  r.achieved_rps >= 0.9 *. r.offered_rps
  && r.p99_ms <= slo_p99_ms
  && float_of_int r.shed <= 0.05 *. float_of_int (max 1 r.sent)

(* Double the offered rate until the tier stops keeping up, then bisect
   between the last rate it sustained and the first it did not: the
   knee is the highest sustained rate found.  [max_steps] bounds the
   doublings when the handler is effectively free; the bisection runs a
   fixed [bisect_steps] more rungs. *)
let bisect_steps = 3

let find_saturation ~handler ~mix ~start_rps ~duration_s ~slo_p99_ms
    ?(threads = 8) ?(max_steps = 10) () =
  let rung rps = run ~handler ~mix ~rps ~duration_s ~threads () in
  let rec bisect lo hi best steps n =
    if n = 0 then (best, steps)
    else
      let mid = (lo +. hi) /. 2. in
      let r = rung mid in
      if keeps_up ~slo_p99_ms r then
        bisect mid hi (Float.max best r.achieved_rps) (r :: steps) (n - 1)
      else bisect lo mid best (r :: steps) (n - 1)
  in
  let rec climb rps best steps n =
    if n >= max_steps then (best, steps)
    else
      let r = rung rps in
      if keeps_up ~slo_p99_ms r then
        climb (rps *. 2.) r.achieved_rps (r :: steps) (n + 1)
      else if n = 0 then (best, r :: steps)
      else bisect (rps /. 2.) rps best (r :: steps) bisect_steps
  in
  let best, steps = climb start_rps 0. [] 0 in
  (best, List.rev steps)
