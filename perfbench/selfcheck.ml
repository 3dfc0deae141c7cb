(* Checks of the statistics helpers on hand-made inputs.  Every run makes
   them before it measures anything, so a broken helper can never
   produce a result line. *)

let failures = ref []

let check name cond = if not cond then failures := name :: !failures

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs b)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let tail_checks () =
  (* 1..n: the value at the chosen percentile is n - beyond. *)
  let t = Stats.tail (ramp 100) in
  check "tail: 100 samples -> p90 with 10 beyond"
    (t.Stats.percentile = 90. && t.Stats.beyond = 10 && t.Stats.value = 90.);
  let t = Stats.tail (ramp 999) in
  check "tail: 999 samples -> p90 (p99 leaves only 9)"
    (t.Stats.percentile = 90. && t.Stats.beyond = 99);
  let t = Stats.tail (ramp 1000) in
  check "tail: 1000 samples -> p99 with 10 beyond"
    (t.Stats.percentile = 99. && t.Stats.beyond = 10 && t.Stats.value = 990.);
  let t = Stats.tail (ramp 25_000) in
  check "tail: 25000 samples -> p99.9 with 25 beyond"
    (close t.Stats.percentile 99.9 && t.Stats.beyond = 25
    && t.Stats.value = 24_975.);
  let t = Stats.tail (ramp 40) in
  check "tail: 40 samples -> p50 fallback"
    (t.Stats.percentile = 50. && t.Stats.beyond = 20 && t.Stats.value = 20.);
  (* Order of the input must not matter. *)
  let shuffled = Harness.shuffle (Random.State.make [| 7 |]) (ramp 1000) in
  check "tail: order-independent" ((Stats.tail shuffled).Stats.value = 990.);
  (* Exactly ten samples lie strictly beyond the reported value. *)
  let a = Array.init 500 (fun i -> float_of_int ((i * 37) mod 500)) in
  let t = Stats.tail a in
  check "tail: beyond counts the samples above the value"
    (Array.fold_left (fun acc v -> if v > t.Stats.value then acc + 1 else acc) 0 a
     = t.Stats.beyond)

let kind_checks () =
  check "median: odd" (Stats.median [| 3.; 1.; 2. |] = 2.);
  check "median: even" (Stats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "geomean" (close (Stats.geomean [ 1.; 4.; 16. ]) 4.);
  (* Kind 0 has median 2, kind 1 median 8: the geomean is 4, whatever
     the mix of sample counts — a pooled median would read 2. *)
  let samples =
    [| (0, 1.); (0, 2.); (0, 3.); (0, 2.); (0, 2.); (1, 8.); (1, 7.); (1, 9.) |]
  in
  check "geomean of per-kind medians"
    (close (Stats.geomean_of_kind_medians ~kinds:3 samples) 4.);
  check "pooled median differs" (Stats.median (Array.map snd samples) = 2.5)

let tally_checks () =
  let t = Stats.tally () in
  List.iter (fun ok -> Stats.record t ~ok) [ true; false; true; true ];
  check "tally: attempted" (t.Stats.attempted = 4);
  check "tally: failed" (t.Stats.failed = 1);
  check "fail_ratio" (Stats.fail_ratio t = 0.25)

let span_checks () =
  let t = Span.create () in
  (* root [0,10]: a [1,4] with replayed child c of length 1, b [5,9];
     a replayed child r of the root lasting 2 after it ends. *)
  let root = Span.add t ~req:0 "op" 0. 10. in
  let a = Span.add t ~parent:root ~req:0 "a" 1. 4. in
  let _b = Span.add t ~parent:root ~req:0 "b" 5. 9. in
  let _c = Span.add t ~parent:a ~replay:true ~req:0 "c" 20. 21. in
  let _r = Span.add t ~parent:root ~replay:true ~req:0 "r" 11. 13. in
  let self = Span.self_times (Span.all t) in
  let s id = Hashtbl.find self id in
  check "span self: root minus children" (close (s root) 1.);
  check "span self: replayed child subtracted" (close (s a) 2.);
  let layers, coverage =
    Harness.summarize_trace ~remainders:[ ("a", "a.overhead") ]
      ~scale:(fun _ -> 1.) (Span.all t)
  in
  let v name =
    (List.find (fun m -> m.Harness.name = name) layers).Harness.value
  in
  check "summary: remainder reports its duration" (close (v "a") 3e3);
  check "summary: remainder self under its paired name"
    (close (v "a.overhead") 2e3);
  (* Covered: b 4 + c 1 + r 2 = 7 of 10; a's own 2 is a remainder. *)
  check "summary: coverage" (close coverage 0.7);
  let scaled, coverage =
    Harness.summarize_trace ~remainders:[] ~scale:(fun _ -> 2.) (Span.all t)
  in
  check "summary: layer times scaled"
    (close
       (List.find (fun m -> m.Harness.name = "b") scaled).Harness.value 8e3);
  check "summary: coverage not scaled" (close coverage 0.9)

(* Host-speed scaling: an operation's factor is the reference slice over
   the median of the slices just before and after it, widened to
   neighbouring operations until there are sixteen. *)
let speed_checks () =
  let r = Speed.reference_s in
  let bounds =
    [| List.init 4 (fun _ -> r); List.init 4 (fun _ -> r);
       List.init 4 (fun _ -> 2. *. r); List.init 4 (fun _ -> 2. *. r);
       List.init 30 (fun _ -> 4. *. r) |]
  in
  (* Operation 0 sits between bounds 0 and 1 (8 slices); the window
     grows to bounds 0-3, eight slices of r and eight of 2r. *)
  check "speed: widened to sixteen slices"
    (close (Harness.op_factor bounds 0) (1. /. 1.5));
  check "speed: median, not mean" (close (Harness.op_factor bounds 3) 0.25);
  check "speed: slices per operation"
    (Harness.slices_before 0. = 1
    && Harness.slices_before (100. *. r) = 5
    && Harness.slices_before 1e3 = 64)

let run () =
  failures := [];
  tail_checks ();
  kind_checks ();
  tally_checks ();
  span_checks ();
  speed_checks ();
  List.rev !failures
