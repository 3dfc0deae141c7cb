let src = Logs.Src.create "lcmm.tier.shard" ~doc:"Tier shard supervisor"

module Log = (val Logs.src_log src : Logs.LOG)

module Breaker = Lcmm_service.Breaker

type error =
  | Overloaded of string  (* shed at the shard's in-flight gate *)
  | Unavailable of string  (* circuit open, no attempt made *)
  | Transport of string  (* connect/read/write failed after retry *)

let error_message = function
  | Overloaded m | Unavailable m | Transport m -> m

(* A backend is either an in-process handler (tests, single-process
   tiers) or a child process serving the NDJSON protocol on a Unix
   socket.  The raw fd rides along so per-call receive timeouts can be
   set without tearing the buffered channels down. *)
type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type proc = {
  socket : string;
  argv : string array;  (* argv.(0) is the program; reused on respawn *)
  mutable pid : int;
  mutable idle : conn list;  (* pooled connections, LIFO *)
  mutable restarts : int;
}

type backend =
  | Local of (string -> string)
  | Proc of proc

type t = {
  name : string;
  backend : backend;
  mutex : Mutex.t;
  max_inflight : int;
  breaker : Breaker.t;  (* over transport failures, guarded by [mutex] *)
  mutable inflight : int;
  mutable calls : int;
  mutable failures : int;
}

let default_breaker_threshold = 3

let default_breaker_cooldown_s = 2.0

let make ?(breaker_threshold = default_breaker_threshold)
    ?(breaker_cooldown_s = default_breaker_cooldown_s) name backend
    max_inflight =
  if max_inflight < 1 then invalid_arg "Shard: max_inflight must be >= 1";
  { name;
    backend;
    mutex = Mutex.create ();
    max_inflight;
    breaker =
      Breaker.create ~threshold:breaker_threshold
        ~cooldown_s:breaker_cooldown_s;
    inflight = 0;
    calls = 0;
    failures = 0 }

let local ~name ?(max_inflight = 64) ?breaker_threshold ?breaker_cooldown_s
    handler =
  make ?breaker_threshold ?breaker_cooldown_s name (Local handler)
    max_inflight

let name t = t.name

let with_lock t fn =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) fn

(* --- child process lifecycle --- *)

let devnull_pair () =
  let rd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let wr = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  (rd, wr)

(* OCaml signal numbers are negative runtime encodings; name the common
   ones so "died (SIGKILL)" reads sanely in operator logs. *)
let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigpipe then "SIGPIPE"
  else if n = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" n

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> signal_name n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by %s" (signal_name n)

(* Spawn argv with stdin and stdout on /dev/null (a shard logging to
   stdout must never pollute the tier's own stdio protocol stream);
   stderr is inherited so shard crashes stay visible. *)
let start_process ~socket argv =
  if Sys.file_exists socket then Unix.unlink socket;
  let rd, wr = devnull_pair () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close rd; Unix.close wr)
      (fun () -> Unix.create_process argv.(0) argv rd wr Unix.stderr)
  in
  (* Wait for the child to bind its socket: a connect probe every 50 ms,
     up to 10 s, watching for early death the whole while. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, status when p = pid ->
      Error
        (Printf.sprintf "shard process died during startup (%s)"
           (status_string status))
    | _ -> (
      let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect sock (Unix.ADDR_UNIX socket) with
      | () ->
        Ok { fd = sock;
             ic = Unix.in_channel_of_descr sock;
             oc = Unix.out_channel_of_descr sock }
      | exception Unix.Unix_error _ ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "shard socket %s never came up" socket)
        else begin
          Unix.sleepf 0.05;
          wait ()
        end)
  in
  match wait () with
  | Ok conn -> Ok (pid, conn)
  | Error _ as e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    e

let spawn ~name ~socket ?(max_inflight = 64) ?breaker_threshold argv =
  match start_process ~socket argv with
  | Error _ as e -> e
  | Ok (pid, conn) ->
    Log.info (fun m -> m "shard %s up: pid %d on %s" name pid socket);
    Ok
      (make ?breaker_threshold name
         (Proc { socket; argv; pid; idle = [ conn ]; restarts = 0 })
         max_inflight)

let close_conn conn =
  (try close_in_noerr conn.ic with _ -> ());
  try close_out_noerr conn.oc with _ -> ()

(* Reap a dead child and respawn it in place (crash-restart).  Called
   under the shard mutex.  The stale socket file is removed by
   [start_process] before the replacement binds. *)
let ensure_alive p =
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> Ok ()  (* still running *)
  | exception Unix.Unix_error _ -> Ok ()  (* already reaped *)
  | _, status ->
    Log.warn (fun m ->
        m "shard process %d died (%s); restarting" p.pid
          (status_string status));
    List.iter close_conn p.idle;
    p.idle <- [];
    (match start_process ~socket:p.socket p.argv with
    | Error _ as e -> e
    | Ok (pid, conn) ->
      p.pid <- pid;
      p.restarts <- p.restarts + 1;
      p.idle <- [ conn ];
      Ok ())

let checkout t p =
  with_lock t (fun () ->
      match ensure_alive p with
      | Error _ as e -> e
      | Ok () -> (
        match p.idle with
        | conn :: rest ->
          p.idle <- rest;
          Ok conn
        | [] -> (
          let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect sock (Unix.ADDR_UNIX p.socket) with
          | () ->
            Ok { fd = sock;
                 ic = Unix.in_channel_of_descr sock;
                 oc = Unix.out_channel_of_descr sock }
          | exception Unix.Unix_error (err, _, _) ->
            (try Unix.close sock with Unix.Unix_error _ -> ());
            Error
              (Printf.sprintf "connect %s: %s" p.socket
                 (Unix.error_message err)))))

let checkin t p conn = with_lock t (fun () -> p.idle <- conn :: p.idle)

(* --- the call path --- *)

(* One request line out, one framed reply line back.  [timeout_s]
   bounds the reply wait via SO_RCVTIMEO on the raw socket — a hung
   shard surfaces as a transport timeout instead of wedging the router
   thread.  The timeout is cleared again before the connection goes
   back to the pool; a timed-out connection is never pooled (its late
   reply would answer the wrong request). *)
let roundtrip ?timeout_s conn line =
  output_string conn.oc line;
  if not (String.length line > 0 && line.[String.length line - 1] = '\n') then
    output_char conn.oc '\n';
  flush conn.oc;
  (match timeout_s with
  | Some s -> (
    try Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO s
    with Unix.Unix_error _ | Invalid_argument _ -> ())
  | None -> ());
  let reply = Dnn_serial.Wire.read_reply conn.ic in
  (match timeout_s, reply with
  | Some _, Ok _ -> (
    try Unix.setsockopt_float conn.fd Unix.SO_RCVTIMEO 0.
    with Unix.Unix_error _ | Invalid_argument _ -> ())
  | _ -> ());
  reply

let attempt_proc t ?timeout_s p line =
  match checkout t p with
  | Error msg -> Error msg
  | Ok conn -> (
    let t0 = Unix.gettimeofday () in
    match roundtrip ?timeout_s conn line with
    | Ok response ->
      checkin t p conn;
      Ok response
    | Error msg ->
      close_conn conn;
      Error msg
    | exception (End_of_file | Sys_error _ | Sys_blocked_io
                | Unix.Unix_error _) ->
      close_conn conn;
      let timed_out =
        match timeout_s with
        | Some s -> Unix.gettimeofday () -. t0 >= 0.5 *. s
        | None -> false
      in
      if timed_out then
        Error
          (Printf.sprintf "no reply within %.0f ms"
             (Option.get timeout_s *. 1e3))
      else Error "connection lost")

let attempt t ?timeout_s line =
  match t.backend with
  | Local handler -> (
    (* In-process handlers run on the caller thread; a receive timeout
       cannot interrupt them and is ignored. *)
    match handler line with
    | response ->
      (* Normalise: in-process handlers return newline-terminated
         response lines (the serve-loop contract). *)
      Ok (String.trim response)
    | exception e ->
      Error (Printf.sprintf "handler raised: %s" (Printexc.to_string e)))
  | Proc p -> (
    match attempt_proc t ?timeout_s p line with
    | Ok _ as ok -> ok
    | Error _ ->
      (* One retry on a fresh connection: the common failure is a stale
         pooled connection to a restarted process. *)
      attempt_proc t ?timeout_s p line)

(* Called under the shard mutex. *)
let record t ~failed =
  if failed then t.failures <- t.failures + 1;
  Breaker.record t.breaker ~now:(Unix.gettimeofday ()) ~failed

(* A transport-level success whose *content* the router rejected
   (corrupted or mismatched reply): charge it to the breaker like a
   failure, without double-counting the call. *)
let penalize t = with_lock t (fun () -> record t ~failed:true)

(* The in-flight gate is checked before the breaker, so a call the
   breaker admits (above all the half-open probe) always runs and
   always reports its outcome.  A full gate still answers from the
   breaker's state: [Unavailable] while the circuit is not closed, so
   the router fails over instead of treating a dead owner as merely
   busy. *)
let call ?timeout_s t line =
  let unavailable () =
    Error
      (Unavailable (Printf.sprintf "unavailable: shard %s circuit open" t.name))
  in
  let admitted =
    with_lock t (fun () ->
        if t.inflight >= t.max_inflight then
          if Breaker.state t.breaker <> `Closed then unavailable ()
          else
            Error
              (Overloaded
                 (Printf.sprintf
                    "overloaded: shard %s at %d in-flight requests" t.name
                    t.max_inflight))
        else
          match Breaker.admit t.breaker ~now:(Unix.gettimeofday ()) with
          | Breaker.Pass | Breaker.Probe ->
            t.inflight <- t.inflight + 1;
            Ok ()
          | Breaker.Shed_open _ | Breaker.Shed_probing -> unavailable ())
  in
  let finish ok =
    with_lock t (fun () ->
        t.inflight <- t.inflight - 1;
        t.calls <- t.calls + 1;
        record t ~failed:(not ok))
  in
  match admitted with
  | Error _ as e -> e
  | Ok () -> (
    match attempt t ?timeout_s line with
    | Ok response ->
      finish true;
      Ok response
    | Error msg ->
      finish false;
      Error (Transport (Printf.sprintf "shard %s: %s" t.name msg))
    | exception e ->
      finish false;
      raise e)

(* Tri-state health: [`Down] while the circuit is open; [`Suspect]
   once the cooldown expires (the classic half-open probation —
   failures on record, recovery unproven) or while recent failures
   accumulate under a still-closed circuit; [`Up] otherwise.
   Called under the shard mutex. *)
let health t ~now =
  let b = t.breaker in
  if Breaker.cooldown_left b ~now > 0. then `Down
  else if Breaker.state b <> `Closed || Breaker.failures b > 0 then `Suspect
  else `Up

let state t = with_lock t (fun () -> health t ~now:(Unix.gettimeofday ()))

let state_name = function `Up -> "up" | `Suspect -> "suspect" | `Down -> "down"

let stats_json t =
  let open Dnn_serial.Json in
  with_lock t (fun () ->
      let st = health t ~now:(Unix.gettimeofday ()) in
      Obj
        [ ("name", String t.name);
          ( "backend",
            String (match t.backend with Local _ -> "local" | Proc _ -> "proc")
          );
          ("healthy", Bool (st <> `Down));
          ("state", String (state_name st));
          ("inflight", Int t.inflight);
          ("max_inflight", Int t.max_inflight);
          ("calls", Int t.calls);
          ("failures", Int t.failures);
          ( "restarts",
            Int (match t.backend with Local _ -> 0 | Proc p -> p.restarts) ) ])

(* Terminate the child and remove its socket file.  SIGTERM first with a
   2 s grace window, SIGKILL after; the child is always reaped, so no
   zombies survive the supervisor. *)
let stop t =
  match t.backend with
  | Local _ -> ()
  | Proc p ->
    with_lock t (fun () ->
        List.iter close_conn p.idle;
        p.idle <- [];
        (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
        let rec reap tries =
          match Unix.waitpid [ Unix.WNOHANG ] p.pid with
          | 0, _ when tries > 0 ->
            Unix.sleepf 0.05;
            reap (tries - 1)
          | 0, _ ->
            (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ())
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        in
        reap 40;
        try Unix.unlink p.socket with Unix.Unix_error _ | Sys_error _ -> ())
