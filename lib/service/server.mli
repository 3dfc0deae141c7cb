(** Serve loops: NDJSON requests from channels or a Unix domain socket,
    answered by a [line -> response-line] handler ({!Engine.handle_line}
    for [lcmm serve], the tier router's for [lcmm tier]).  Handlers must
    be thread-safe and return a newline-terminated response line.

    Within one connection requests are answered sequentially, one line
    per request, in request order (in-connection parallelism comes from
    [batch] requests fanning out over the engine's pool).  The socket
    listener accepts concurrently — each connection is served on its own
    thread — so a shard can overlap requests from the router with
    peer-fill probes from sibling shards. *)

val serve_channels : (string -> string) -> in_channel -> out_channel -> unit
(** Read request lines until end of input, answering each on the output
    channel.  Blank lines are skipped; a line past
    {!Dnn_serial.Wire.read_request}'s bound is refused with a ["parse"]
    error without being kept or parsed; unreadable input ends the
    loop. *)

val serve_unix_socket : (string -> string) -> path:string -> unit
(** Bind (replacing a stale socket file), listen and accept forever,
    one handler thread per connection; the socket file is removed on
    normal process exit.  Raises [Unix.Unix_error] when the bind
    fails. *)
