(* The statistics every workload reports, kept apart from the workloads
   so the self-checks in [Selfcheck] can pin them on hand-made inputs. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Median of a sorted array: the mean of the two middle samples when the
   count is even. *)
let median_sorted s =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let median a = median_sorted (sorted a)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
    if List.exists (fun x -> not (x > 0.)) xs then
      invalid_arg "Stats.geomean: values must be positive";
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* The tail percentile: the highest of p50, p90, p99, p99.9, ... that
   leaves at least ten samples strictly above its nearest-rank
   position.  For [n] samples the k-th "nines" percentile leaves
   [n / 10^k] samples beyond it (integer division), so the rule is exact
   integer arithmetic with no float rounding at the boundaries. *)
type tail = {
  percentile : float;  (** e.g. 99. for p99. *)
  value : float;
  beyond : int;        (** Samples above the percentile's rank. *)
  samples : int;
}

let min_beyond = 10

let tail a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let s = sorted a in
  let at ~percentile ~beyond =
    { percentile; value = s.(n - beyond - 1); beyond; samples = n }
  in
  let rec nines k pow best =
    let beyond = n / pow in
    if beyond >= min_beyond && k <= 9 then
      nines (k + 1) (pow * 10)
        (at ~percentile:(100. -. (100. /. float_of_int pow)) ~beyond)
    else best
  in
  (* p50 leaves floor(n/2) samples beyond it — the fallback for runs too
     short to resolve p90. *)
  nines 1 10 (at ~percentile:50. ~beyond:(n / 2))

(* Geometric mean over kinds of each kind's median latency.  A kind is
   one distinct request, graph or mix; taking each kind's median first
   keeps a cheap kind and an expensive one from trading places in a
   pooled median. *)
let geomean_of_kind_medians ~kinds (samples : (int * float) array) =
  let per = Array.make kinds [] in
  Array.iter (fun (k, v) -> per.(k) <- v :: per.(k)) samples;
  Array.to_list per
  |> List.filter (fun l -> l <> [])
  |> List.map (fun l -> median (Array.of_list l))
  |> geomean

(* Operations attempted and failed.  A failed, refused or check-failed
   operation counts once, however many of its checks failed. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let fail_ratio t =
  if t.attempted = 0 then invalid_arg "Stats.fail_ratio: nothing attempted"
  else float_of_int t.failed /. float_of_int t.attempted
