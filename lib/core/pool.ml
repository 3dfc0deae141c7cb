type job = Job : (unit -> unit) -> job

exception Worker_crash of string

let src = Logs.Src.create "lcmm.pool" ~doc:"Worker pool"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  queue : job Queue.t;
  mutex : Mutex.t;
  wakeup : Condition.t;       (* signaled on enqueue and on shutdown *)
  mutable stopping : bool;
  mutable busy_count : int;
  mutable restart_count : int;
  mutable workers : unit Domain.t list;
  domain_count : int;
}

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

(* Exceptions that kill the worker executing the job rather than being
   absorbed as an ordinary job failure.  The job's future is still
   completed (Failed) before the worker dies, so the awaiting client
   gets a structured error instead of a hang; the supervisor loop then
   restarts the worker. *)
let is_crash = function
  | Worker_crash _ | Stack_overflow | Out_of_memory -> true
  | _ -> false

let worker_loop t () =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec next () =
      match Queue.take_opt t.queue with
      | Some job -> Some job
      | None ->
        if t.stopping then None
        else begin
          Condition.wait t.wakeup t.mutex;
          next ()
        end
    in
    match next () with
    | None ->
      Mutex.unlock t.mutex;
      ()
    | Some (Job run) ->
      t.busy_count <- t.busy_count + 1;
      Mutex.unlock t.mutex;
      run ();
      Mutex.lock t.mutex;
      t.busy_count <- t.busy_count - 1;
      Mutex.unlock t.mutex;
      loop ()
  in
  loop ()

(* The supervisor: a crash escaping a job (see [is_crash]) unwinds
   [worker_loop] mid-job with [busy_count] still incremented.  Repair
   the counter, log, and re-enter the loop on the same domain — the
   worker is back in service for the next queued job. *)
let rec supervised_loop t () =
  match worker_loop t () with
  | () -> ()
  | exception e ->
    Mutex.lock t.mutex;
    t.busy_count <- t.busy_count - 1;
    t.restart_count <- t.restart_count + 1;
    let stopping = t.stopping in
    Mutex.unlock t.mutex;
    Log.err (fun m ->
        m "worker crashed (%s); restarting" (Printexc.to_string e));
    if not stopping then supervised_loop t ()

let create ?domains () =
  let domain_count =
    match domains with
    | Some n when n < 1 -> invalid_arg "Pool.create: domains must be >= 1"
    (* OCaml 5.1 runs at most 128 domains (caml/domain.h's Max_domains),
       the caller's included: check before spawning any. *)
    | Some n when n > 127 -> invalid_arg "Pool.create: domains must be <= 127"
    | Some n -> n
    | None -> max 1 (min 8 (Domain.recommended_domain_count () - 1))
  in
  let t =
    { queue = Queue.create ();
      mutex = Mutex.create ();
      wakeup = Condition.create ();
      stopping = false;
      busy_count = 0;
      restart_count = 0;
      workers = [];
      domain_count }
  in
  t.workers <- List.init domain_count (fun _ -> Domain.spawn (supervised_loop t));
  t

let size t = t.domain_count

let submit t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  let run () =
    let outcome = try Done (f ()) with e -> Failed e in
    Mutex.lock fut.fm;
    fut.state <- outcome;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm;
    (* Complete the future first, then let a crash take the worker
       down: the awaiting client is answered either way. *)
    match outcome with
    | Failed e when is_crash e -> raise e
    | _ -> ()
  in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add (Job run) t.queue;
  Condition.signal t.wakeup;
  Mutex.unlock t.mutex;
  fut

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fc fut.fm;
      wait ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let outcome = wait () in
  Mutex.unlock fut.fm;
  outcome

(* OCaml's [Condition] has no timed wait, so a bounded await polls the
   future state with exponential backoff (1 ms doubling to 50 ms) —
   coarse enough to cost nothing, fine enough that a deadline miss is
   reported within a twentieth of a second of the budget. *)
let await_within ~seconds fut =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait interval =
    Mutex.lock fut.fm;
    let state = fut.state in
    Mutex.unlock fut.fm;
    match state with
    | Done v -> Some (Ok v)
    | Failed e -> Some (Error e)
    | Pending ->
      if Unix.gettimeofday () >= deadline then None
      else begin
        Unix.sleepf (Float.min interval (Float.max 0. (deadline -. Unix.gettimeofday ())));
        wait (Float.min 0.05 (interval *. 2.))
      end
  in
  wait 0.001

let run t f =
  match await (submit t f) with Ok v -> v | Error e -> raise e

(* Steal one queued job and run it on the calling thread.  Jobs built by
   [submit] complete their future before re-raising a crash exception,
   so swallowing anything that escapes here is safe — the awaiting side
   still observes the structured failure. *)
let help_one t =
  Mutex.lock t.mutex;
  let job = Queue.take_opt t.queue in
  (match job with Some _ -> t.busy_count <- t.busy_count + 1 | None -> ());
  Mutex.unlock t.mutex;
  match job with
  | None -> false
  | Some (Job run) ->
    (try run () with _ -> ());
    Mutex.lock t.mutex;
    t.busy_count <- t.busy_count - 1;
    Mutex.unlock t.mutex;
    true

(* A helping parallel map: while its futures are pending the caller
   drains queued jobs instead of blocking.  This is what makes nested
   fan-out safe — a pool job that itself calls [map_list] keeps making
   progress even when every worker is busy with jobs that are all
   waiting on sub-jobs, because the sub-jobs get executed by their
   waiters.  Only when the queue is empty does the caller block on the
   future (its job is then necessarily running on another domain). *)
let map_list t f xs =
  let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
  List.map
    (fun fut ->
      let rec wait () =
        Mutex.lock fut.fm;
        let state = fut.state in
        Mutex.unlock fut.fm;
        match state with
        | Done v -> v
        | Failed e -> raise e
        | Pending ->
          if help_one t then wait ()
          else begin
            Mutex.lock fut.fm;
            let rec block () =
              match fut.state with
              | Pending ->
                Condition.wait fut.fc fut.fm;
                block ()
              | Done v -> Ok v
              | Failed e -> Error e
            in
            let outcome = block () in
            Mutex.unlock fut.fm;
            match outcome with Ok v -> v | Error e -> raise e
          end
      in
      wait ())
    futures

let busy t =
  Mutex.lock t.mutex;
  let n = t.busy_count in
  Mutex.unlock t.mutex;
  n

let queued t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let restarts t =
  Mutex.lock t.mutex;
  let n = t.restart_count in
  Mutex.unlock t.mutex;
  n

let shutdown t =
  Mutex.lock t.mutex;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.wakeup;
  Mutex.unlock t.mutex;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end
