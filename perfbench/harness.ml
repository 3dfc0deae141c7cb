(* What every workload shares: repeated set-up, the timed replay loop
   with its host-speed calibration (see [Speed]), the digest checks, and
   the per-layer summary of a traced replay. *)

module Json = Dnn_serial.Json

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* Host time of one run: each set-up, each timed operation (kind and
   seconds) and the timed passes' busy time (their wall time, the
   after-pass checks, calibration slices and traced operations
   excluded). *)
type timing = {
  setup : float list;
  samples : (int * float) array;
  busy : float;
}

(* The result a workload hands back to [Main]. *)
type result = {
  scaled : timing;                (** Scaled to the reference host speed. *)
  raw : timing;                   (** As measured. *)
  kinds : string array;           (** Kind names, indexed by kind id. *)
  tally : Stats.tally;
  heap_peak_mb : float;
  simulated : metric list;        (** Simulated end-to-end metrics. *)
  layers : metric list;           (** Per-layer metrics; traced runs only. *)
  notes : string list;            (** Human-readable lines for stdout. *)
}

(* --- host speed --- *)

(* Scale factor from calibration slices: the reference slice over the
   median one. *)
let factor slices = Speed.reference_s /. Stats.median (Array.of_list slices)

(* Set up [n] times and keep the last state; earlier states are disposed
   of so the timed phase runs with exactly one live copy.  Reporting the
   median of several set-ups keeps [setup_s] steady on a shared host.
   Each set-up is scaled by calibration slices taken just before and
   just after it.  Returns the raw and the scaled durations. *)
let repeat_setup ~n ~dispose setup =
  let rec go i raw scaled prev =
    if i = n then (Option.get prev, List.rev raw, List.rev scaled)
    else begin
      Option.iter dispose prev;
      let before = Speed.slices 64 in
      let st, t0, t1 = Clock.time setup in
      let f = factor (before @ Speed.slices 64) in
      go (i + 1) ((t1 -. t0) :: raw) (((t1 -. t0) *. f) :: scaled) (Some st)
    end
  in
  go 0 [] [] None

type replay = {
  plain : (int * int * float) array;   (* (op index, kind, seconds) *)
  traced_ops : (int * int) array;      (* (op index, kind), traced *)
  factors : float array;               (* scale factor per op index *)
  median_slice : float;                (* over the whole replay *)
  busy_raw : float;
  busy_scaled : float;
  minor_words : float;
  major_collections : int;
}

(* Calibration slices around operation [g] of [bounds] (slice lists,
   [bounds.(g)] run just before operation [g]): those just before and
   just after it, widened to neighbouring operations until there are at
   least [min_slices]. *)
let min_slices = 16

let op_factor bounds g =
  let last = Array.length bounds - 1 in
  let rec widen w =
    let lo = max 0 (g - w) and hi = min last (g + 1 + w) in
    let acc = ref [] in
    for b = lo to hi do acc := bounds.(b) @ !acc done;
    if List.length !acc >= min_slices || (lo = 0 && hi = last) then
      factor !acc
    else widen (w + 1)
  in
  widen 0

(* Calibration time before an operation: about 5% of the previous
   operation's time, one slice at least and 64 at most. *)
let slices_before prev_dt =
  max 1 (min 64 (int_of_float (Float.ceil (0.05 *. prev_dt /. Speed.reference_s))))

(* Replay [passes] passes in full; pass [p] runs the kinds [order p].  A
   run never stops at a time limit, so every run times the same mix of
   operations.  [op ~slot k] performs one operation and keeps whatever
   it must check in slot [slot]; [after_pass] checks a finished pass
   outside the timed window.  Calibration slices run before every
   operation and after the last one of each pass.  GC counters cover
   the plain operations only.

   With [traced], slot [s] of pass [p] runs [traced ~slot ~req k]
   instead whenever [s + p] is even, [req] numbering the operations of
   the run: over two passes every slot runs once each way, so traced
   and plain operations of every kind share one heap and one cache
   regime, and their difference is the tracing overhead. *)
let replay ?traced ~passes ~order ~op ~after_pass () =
  let plain = ref [] and traced_ops = ref [] and bounds = ref [] in
  let busy_raw = ref 0. and busy_scaled = ref 0. in
  let minor = ref 0. and major = ref 0 in
  let g = ref 0 and prev_dt = ref 0. in
  for p = 0 to passes - 1 do
    let seq = order p in
    let cal = ref 0. and cal_slices = ref [] and traced_time = ref 0. in
    let calibrate n =
      let t0 = Clock.now () in
      let s = Speed.slices n in
      cal_slices := s @ !cal_slices;
      cal := !cal +. (Clock.now () -. t0);
      s
    in
    let t_pass = Clock.now () in
    Array.iteri
      (fun slot k ->
        bounds := calibrate (slices_before !prev_dt) :: !bounds;
        let is_traced = Option.is_some traced && (slot + p) mod 2 = 0 in
        let g0 = Gc.quick_stat () in
        let t0 = Clock.now () in
        (match traced with
        | Some traced when is_traced -> traced ~slot ~req:!g k
        | _ -> op ~slot k);
        let dt = Clock.now () -. t0 in
        if is_traced then begin
          traced_ops := (!g, k) :: !traced_ops;
          traced_time := !traced_time +. dt
        end
        else begin
          let g1 = Gc.quick_stat () in
          minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
          major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
          plain := (!g, k, dt) :: !plain
        end;
        prev_dt := dt;
        incr g)
      seq;
    let trailing = calibrate (slices_before !prev_dt) in
    let busy = Clock.now () -. t_pass -. !cal -. !traced_time in
    busy_raw := !busy_raw +. busy;
    busy_scaled := !busy_scaled +. (busy *. factor !cal_slices);
    (* Between passes, the next operation's own slices stand for the
       boundary. *)
    if p = passes - 1 then bounds := trailing :: !bounds;
    after_pass seq
  done;
  let bounds = Array.of_list (List.rev !bounds) in
  let all_slices = Array.of_list (List.concat (Array.to_list bounds)) in
  { plain = Array.of_list (List.rev !plain);
    traced_ops = Array.of_list (List.rev !traced_ops);
    factors = Array.init !g (op_factor bounds);
    median_slice = Stats.median all_slices;
    busy_raw = !busy_raw; busy_scaled = !busy_scaled;
    minor_words = !minor; major_collections = !major }

(* Passes of a traced run: an even number, so every slot is traced once
   per pair, and about a quarter of the untraced run's operations. *)
let traced_passes passes = 2 * max 1 (passes / 8)

(* Whole passes for a run of about [seconds], from a nominal pass time
   measured once per workload.  The count depends only on the
   arguments, never on how fast this run goes. *)
let passes ~seconds ~nominal_pass_s =
  max 1 (int_of_float (Float.ceil (float_of_int seconds /. nominal_pass_s)))

let heap_peak_mb () =
  float_of_int ((Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let gc_layers (r : replay) =
  let ops = float_of_int (Array.length r.plain) in
  [ metric "gc.minor_mb_per_op" "MB"
      (r.minor_words *. float_of_int (Sys.word_size / 8) /. 1e6 /. ops);
    metric "gc.major_per_kop" "count"
      (float_of_int r.major_collections *. 1000. /. ops) ]

(* Seeded Fisher-Yates shuffle of a copy. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Pass [p]'s order: a seeded shuffle of the workload's fixed multiset
   of kinds [base], a fresh one every pass, so that which operation
   follows which, and the heap each starts from, average out over the
   passes of a run. *)
let pass_order ~seed ~tag base p =
  shuffle (Random.State.make [| seed; tag; p |]) base

(* [copies] of each of [n] kinds. *)
let each ~copies n = Array.init (copies * n) (fun i -> i mod n)

let digest_json v = Dnn_serial.Codec.digest_string (Json.to_string v)

(* Checks of the workloads whose every output is pinned by a digest: a
   pass's outputs must carry their kind's warm-pass digest (the slots
   are emptied for the next pass), and the warm pass the digests stored
   in reference.json. *)
let check_digests ~digest ~expected ~seq slots tally =
  Array.iteri
    (fun slot out ->
      Stats.record tally
        ~ok:
          (match out with
          | Some out -> digest out = expected.(seq.(slot))
          | None -> false);
      slots.(slot) <- None)
    slots

let check_reference ~reference digests tally =
  Option.iter
    (fun stored ->
      Array.iteri
        (fun k d ->
          Stats.record tally
            ~ok:(Array.length stored = Array.length digests && stored.(k) = d))
        digests)
    reference

(* --- traced runs --- *)

(* Per-layer metrics of a traced replay.  [ops] root spans (named "op")
   each cover one operation.  Every other span name is a layer metric:
   its mean self time per operation, in ms, each span scaled by
   [scale req] of its operation.  A span listed in [remainders] wraps a
   call whose inner work was replayed: it reports its full duration
   under its own name and its self time — the part no replayed layer
   explains — under the paired name.  Coverage is the median over
   operations of the layers' summed self time, remainders excluded, as
   a share of the operation. *)
let summarize_trace ~remainders ~scale spans =
  let self = Span.self_times spans in
  let self_of s = Hashtbl.find self s.Span.id in
  let roots = List.filter (fun s -> s.Span.name = "op") spans in
  let nops = float_of_int (List.length roots) in
  let totals = Hashtbl.create 32 in
  let bump name v =
    Hashtbl.replace totals name
      (v +. Option.value ~default:0. (Hashtbl.find_opt totals name))
  in
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.Span.name <> "op" then begin
        let f = scale s.Span.req in
        match List.assoc_opt s.Span.name remainders with
        | Some paired ->
          bump s.Span.name (Span.duration s *. f);
          bump paired (self_of s *. f)
        | None ->
          bump s.Span.name (self_of s *. f);
          Hashtbl.replace covered s.Span.req
            (self_of s
            +. Option.value ~default:0. (Hashtbl.find_opt covered s.Span.req))
      end)
    spans;
  let coverage =
    Stats.median
      (Array.of_list
         (List.map
            (fun r ->
              Option.value ~default:0. (Hashtbl.find_opt covered r.Span.req)
              /. Span.duration r)
            roots))
  in
  let layers =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) totals []
    |> List.sort compare
    |> List.map (fun (name, v) -> metric name "ms" (v /. nops *. 1e3))
  in
  (layers, coverage)

let scaled_samples (r : replay) ops =
  Array.map (fun (g, k, dt) -> (k, dt *. r.factors.(g))) ops

(* Tracing overhead: geometric mean over kinds of the traced operation's
   median over the plain one's, minus one, both scaled.  A traced
   operation's time is its root span's: the layers replayed after the
   call returns are not part of it. *)
let trace_overhead ~kinds (r : replay) spans =
  let kind_of = Hashtbl.create 1024 in
  Array.iter (fun (g, k) -> Hashtbl.replace kind_of g k) r.traced_ops;
  let traced =
    List.filter_map
      (fun s ->
        if s.Span.name = "op" then
          Some
            ( Hashtbl.find kind_of s.Span.req,
              Span.duration s *. r.factors.(s.Span.req) )
        else None)
      spans
    |> Array.of_list
  in
  (Stats.geomean_of_kind_medians ~kinds traced
   /. Stats.geomean_of_kind_medians ~kinds (scaled_samples r r.plain))
  -. 1.

let write_trace ~path spans =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc (Json.to_string (Span.to_trace_json spans));
  output_char oc '\n';
  close_out oc

(* One run of a workload: set up five times, compact, replay (plain, or
   half traced with [trace]), check every pass, and summarize.  The
   workload adds its simulated metrics and counts to the result.
   [order st p] is pass [p]'s sequence of kinds, of the same length for
   every pass; [traced st spans ~slot ~req k] performs one traced
   operation; [remainder] names the span whose inner layers the
   workload replays and the metric its self time is reported under. *)
let run ~setup ~dispose ~order ~kinds ~nominal_pass_s ~op ~traced ~check_pass
    ~remainder ~trace_path ~seconds ~trace () =
  let st, setup_raw, setup_scaled = repeat_setup ~n:5 ~dispose setup in
  let tally = Stats.tally () in
  let after_pass seq = check_pass st seq tally in
  Gc.compact ();
  let passes = passes ~seconds ~nominal_pass_s in
  let spans = Span.create () in
  let r =
    if trace then
      replay ~traced:(traced st spans) ~passes:(traced_passes passes)
        ~order:(order st) ~op:(op st) ~after_pass ()
    else replay ~passes ~order:(order st) ~op:(op st) ~after_pass ()
  in
  let heap_peak_mb = heap_peak_mb () in
  let kinds = kinds st in
  let layers =
    if not trace then []
    else begin
      let all = Span.all spans in
      let layers, coverage =
        summarize_trace ~remainders:[ remainder ]
          ~scale:(fun req -> r.factors.(req))
          all
      in
      write_trace ~path:trace_path all;
      layers
      @ [ metric "trace.coverage" "ratio" coverage;
          metric "trace.overhead" "ratio"
            (trace_overhead ~kinds:(Array.length kinds) r all) ]
      @ gc_layers r
    end
  in
  ( st,
    { scaled =
        { setup = setup_scaled; samples = scaled_samples r r.plain;
          busy = r.busy_scaled };
      raw =
        { setup = setup_raw;
          samples = Array.map (fun (_, k, dt) -> (k, dt)) r.plain;
          busy = r.busy_raw };
      kinds;
      tally;
      heap_peak_mb;
      simulated = [];
      layers;
      notes =
        Printf.sprintf
          "host speed: median calibration slice %.2f us (reference %.2f us)"
          (r.median_slice *. 1e6) (Speed.reference_s *. 1e6)
        :: (if trace then
           [ Printf.sprintf "trace: spans written to %s; end-to-end figures \
                             above come from the plain half of a traced run"
               trace_path ]
         else []) } )
