module Json = Dnn_serial.Json

(* --- percentile estimation over a sample --- *)

(* Linear interpolation between order statistics (the "type 7" estimator
   most tools default to): rank q*(n-1) into the sorted sample, fractional
   ranks interpolated between neighbours.  Total on every input: an empty
   sample reports 0 (not NaN — the stats op serializes these into JSON,
   where NaN is unrepresentable), a singleton reports its only value at
   every quantile, and q is clamped into [0,1] with NaN treated as 0. *)
let percentile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else if n = 1 then sorted.(0)
  else begin
    let q = if Float.is_nan q then 0. else Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    if frac = 0. then sorted.(lo)
    else sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile sample q =
  let sorted = Array.copy sample in
  Array.sort Float.compare sorted;
  percentile_sorted sorted q

(* --- bounded reservoir (Vitter's algorithm R) --- *)

module Reservoir = struct
  type t = {
    slots : float array;
    mutable seen : int;
    rng : Random.State.t;
  }

  let create ?(capacity = 1024) ?(seed = 0x5eed) () =
    if capacity < 1 then invalid_arg "Reservoir.create: capacity must be >= 1";
    { slots = Array.make capacity 0.;
      seen = 0;
      rng = Random.State.make [| seed |] }

  let add t x =
    let cap = Array.length t.slots in
    if t.seen < cap then t.slots.(t.seen) <- x
    else begin
      (* Keep each of the [seen+1] values with equal probability. *)
      let j = Random.State.int t.rng (t.seen + 1) in
      if j < cap then t.slots.(j) <- x
    end;
    t.seen <- t.seen + 1

  let count t = t.seen

  let sample t = Array.sub t.slots 0 (min t.seen (Array.length t.slots))

  let percentile t q = percentile (sample t) q
end

(* --- per-op request aggregates --- *)

type op_stats = {
  mutable count : int;
  mutable errors : int;
  mutable total_s : float;
  mutable max_s : float;
  latencies : Reservoir.t;
}

type t = {
  mutex : Mutex.t;
  by_op : (string, op_stats) Hashtbl.t;
  mutable requests : int;
  mutable error_count : int;
}

let create () =
  { mutex = Mutex.create ();
    by_op = Hashtbl.create 8;
    requests = 0;
    error_count = 0 }

let with_lock t fn =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) fn

let record t ~op ~ok ~seconds =
  with_lock t (fun () ->
      let s =
        match Hashtbl.find_opt t.by_op op with
        | Some s -> s
        | None ->
          let s =
            { count = 0; errors = 0; total_s = 0.; max_s = 0.;
              latencies = Reservoir.create () }
          in
          Hashtbl.add t.by_op op s;
          s
      in
      s.count <- s.count + 1;
      s.total_s <- s.total_s +. seconds;
      if seconds > s.max_s then s.max_s <- seconds;
      Reservoir.add s.latencies seconds;
      t.requests <- t.requests + 1;
      if not ok then begin
        s.errors <- s.errors + 1;
        t.error_count <- t.error_count + 1
      end)

let snapshot t =
  with_lock t (fun () ->
      let ops =
        Hashtbl.fold (fun op s acc -> (op, s) :: acc) t.by_op []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map (fun (op, s) ->
               (* One sorted copy serves all three percentiles. *)
               let sorted = Reservoir.sample s.latencies in
               Array.sort Float.compare sorted;
               let p q = percentile_sorted sorted q *. 1e3 in
               ( op,
                 Json.Obj
                   [ ("count", Json.Int s.count);
                     ("errors", Json.Int s.errors);
                     ("total_ms", Json.Float (s.total_s *. 1e3));
                     ("max_ms", Json.Float (s.max_s *. 1e3));
                     ("p50_ms", Json.Float (p 0.50));
                     ("p99_ms", Json.Float (p 0.99));
                     ("p999_ms", Json.Float (p 0.999)) ] ))
      in
      Json.Obj
        [ ("requests", Json.Int t.requests);
          ("errors", Json.Int t.error_count); ("by_op", Json.Obj ops) ])
