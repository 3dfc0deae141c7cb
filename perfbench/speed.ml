(* Host speed, measured between operations.

   The benchmark runs on shared virtual machines whose speed drifts with
   the load of their neighbours: on the 2-vCPU VM it was tuned on, a
   fixed loop's rate moved by up to 30% between 5-second windows and
   stayed on one level for tens of seconds, and the workloads moved with
   it.  So the harness times a fixed kernel in short slices between
   operations and reports host times scaled to a host on which one slice
   takes [reference_s]: an operation's time is multiplied by
   [reference_s] over the median slice measured around it.

   The kernel builds and folds a small [Map] of integers: allocation and
   short-lived boxed trees, as in the libraries.  Over 90 s of
   runtime-mix, its median per 20 operations followed the operations'
   speed with a correlation of 0.94 and about the same amplitude; a
   walk through 256 KB that allocates nothing correlated 0.86 but moved
   half as much.  It calls no code of the repository, so no change to
   the program can move it.

   The slices run in a child process forked before any work starts, on
   the same CPU (it inherits the pinning), so the kernel's allocation
   never triggers a collection in the benchmark's heap: a collection
   there would promote, or finish marking, an operation's data outside
   its timing. *)

module IntMap = Map.Make (Int)

let kernel () =
  let m = ref IntMap.empty in
  for i = 0 to 399 do
    m := IntMap.add ((i * 7919) land 1023) i !m
  done;
  IntMap.fold (fun k v acc -> acc + k + v) !m 0

(* Duration of one slice, in seconds. *)
let slice () =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.now () -. t0

(* About the median slice over the benchmark's tuning runs on a 2-vCPU
   VM (43 to 65 us per run).  Only the ratio to it matters: scaled
   figures are comparable across runs and commits, and read as host
   time on a host about as fast as that VM was on average. *)
let reference_s = 50e-6

type calibrator = { requests : out_channel; replies : in_channel; pid : int }

let calibrator = ref None

(* Fork the calibrating child.  Call before any domain is spawned.  The
   child runs [n] slices per request (an int) and replies with their
   durations, until its request pipe closes. *)
let start () =
  flush_all ();
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    let ic = Unix.in_channel_of_descr req_r
    and oc = Unix.out_channel_of_descr rep_w in
    (try
       while true do
         let n = input_binary_int ic in
         for _ = 1 to n do
           output_string oc (Int64.to_string (Int64.bits_of_float (slice ())));
           output_char oc '\n'
         done;
         flush oc
       done
     with End_of_file -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    calibrator :=
      Some
        { requests = Unix.out_channel_of_descr req_w;
          replies = Unix.in_channel_of_descr rep_r;
          pid }

(* Durations of [n] slices run by the child. *)
let slices n =
  match !calibrator with
  | None -> invalid_arg "Speed.slices: no calibrator (call Speed.start)"
  | Some c ->
    output_binary_int c.requests n;
    flush c.requests;
    List.init n (fun _ ->
        Int64.float_of_bits (Int64.of_string (input_line c.replies)))

(* Close the child's request pipe and wait for it to exit. *)
let stop () =
  Option.iter
    (fun c ->
      close_out c.requests;
      close_in c.replies;
      ignore (Unix.waitpid [] c.pid);
      calibrator := None)
    !calibrator
