let src = Logs.Src.create "lcmm.service.server" ~doc:"Plan service transport"

module Log = (val Logs.src_log src : Logs.LOG)

module Wire = Dnn_serial.Wire

let serve_channels handler ic oc =
  let answer line =
    output_string oc line;
    flush oc
  in
  let rec loop () =
    match Wire.read_request ic with
    | `Eof -> ()
    | `Line line ->
      answer (handler line);
      loop ()
    | `Too_long msg ->
      (* The reader skipped the line without keeping it: refuse it and
         go on serving the connection. *)
      Log.info (fun m -> m "input refused: %s" msg);
      answer (Wire.to_line (Wire.error ~op:"parse" msg));
      loop ()
    | `Broken msg -> (
      (* Framing failure (peer died mid-write, channel error): answer
         with a structured parse-class error — the peer may have only
         half-closed its write side — then stop serving the
         connection.  Never hand a partial record to the JSON parser. *)
      Log.warn (fun m -> m "input error: %s" msg);
      try answer (Wire.to_line (Wire.error ~op:"parse" msg))
      with Sys_error _ | Unix.Unix_error _ -> ())
  in
  loop ()

(* [accept] is where a signal lands while the server sleeps; EINTR there
   must restart the wait, not kill the listener. *)
let rec accept_retry sock =
  match Unix.accept ~cloexec:true sock with
  | conn -> conn
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_retry sock

let serve_unix_socket handler ~path =
  (* A client vanishing mid-response must surface as a write error on
     that connection, not as a process-killing SIGPIPE.  (No-op on
     platforms without the signal.) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if Sys.file_exists path then Unix.unlink path;
  (* Every socket is close-on-exec: the tier router forks shard
     processes from connection threads, and an inherited connection FD
     would hold the peer open long after this process closes it. *)
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  at_exit (fun () -> try Unix.unlink path with Unix.Unix_error _ -> ());
  Log.app (fun m -> m "listening on %s" path);
  let rec accept_loop () =
    let conn, _ = accept_retry sock in
    Log.info (fun m -> m "connection accepted");
    (* One thread per connection, so a long-lived router connection and
       a peer-fill probe from a sibling shard overlap instead of
       queueing behind each other.  The engine underneath is
       thread-safe (cache, pool and metrics are all mutexed). *)
    let (_ : Thread.t) =
      Thread.create
        (fun conn ->
          let ic = Unix.in_channel_of_descr conn in
          let oc = Unix.out_channel_of_descr conn in
          (* One connection dying — mid-read or mid-write
             (EPIPE/ECONNRESET surface as Sys_error or Unix_error from
             the channel layer) — never takes its thread down noisily,
             and never the accept loop at all. *)
          (try serve_channels handler ic oc with
          | Sys_error msg -> Log.warn (fun m -> m "connection error: %s" msg)
          | Unix.Unix_error (err, fn, _) ->
            Log.warn (fun m ->
                m "connection error: %s in %s" (Unix.error_message err) fn));
          (try Unix.close conn with Unix.Unix_error _ -> ());
          Log.info (fun m -> m "connection closed"))
        conn
    in
    accept_loop ()
  in
  accept_loop ()
