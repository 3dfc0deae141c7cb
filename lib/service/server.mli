(** Serve loops: NDJSON requests from stdio or a Unix domain socket.

    Within one connection requests are answered sequentially, one line
    per request, in request order (in-connection parallelism comes from
    [batch] requests fanning out over the engine's pool).  The socket
    listener accepts concurrently — each connection is served on its own
    thread — so a shard can overlap requests from the router with
    peer-fill probes from sibling shards.

    The [_with] variants take a raw [line -> response-line] handler
    instead of an engine; the tier router serves its front socket
    through them.  Handlers must be thread-safe and must return a
    newline-terminated response line ({!Engine.handle_line} is both). *)

val serve_channels_with : (string -> string) -> in_channel -> out_channel -> unit
(** Read request lines until end of input, answering each on the output
    channel.  Blank lines are skipped; unreadable input ends the loop. *)

val serve_stdio : ?timing:bool -> Engine.t -> unit

val serve_unix_socket : ?timing:bool -> Engine.t -> path:string -> unit
(** Bind (replacing a stale socket file), listen and accept forever,
    one handler thread per connection; the socket file is removed on
    normal process exit.  Raises [Unix.Unix_error] when the bind
    fails. *)

val serve_unix_socket_with : (string -> string) -> path:string -> unit
