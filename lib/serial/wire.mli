(** The reply format of line-delimited JSON services: the only module
    that builds, sums, classifies and decodes a reply.

    Every response of the plan-compilation service is one compact JSON
    object on one line.  The field order is fixed so that identical
    payloads render byte-identically — the service's determinism tests
    and reproducible transcripts depend on that. *)

val ok :
  ?id:Json.t -> op:string -> ?cache:string -> ?elapsed_ms:float ->
  ?sum:bool -> Json.t -> Json.t
(** [ok ~op result] is [{"id"?, "op", "ok": true, "cache"?,
    "elapsed_ms"?, "sum"?, "result"}].  [id] echoes the request's id
    verbatim; [cache] is ["hit"] or ["miss"] when the operation went
    through a cache; [sum] (default [false]) adds {!sum_of} [result], for
    a request that asked for end-to-end integrity (["checksum": true]). *)

val error : ?id:Json.t -> op:string -> string -> Json.t
(** [{"id"?, "op", "ok": false, "kind"?, "error": msg}], with the
    ["kind"] {!kind} derives from [msg]; absent for plain client
    errors. *)

val sum_of : Json.t -> string
(** The hex digest of a payload's compact rendering: the ["sum"] of a
    reply, and the checksum the plan cache stores beside a persisted
    payload. *)

val kind : string -> string option
(** The machine-readable class of an error message, from its stable
    prefix: ["internal"], ["deadline"], ["unavailable"] or
    ["overloaded"]; [None] for plain client errors. *)

val to_line : Json.t -> string
(** Compact rendering plus a trailing newline — one NDJSON record. *)

type reply = {
  id : Json.t option;
  answer : (Json.t * string option, string * string option) result;
      (** [Ok (payload, sum)] or [Error (message, kind)], the kind
          derived from the message by {!kind}. *)
}

val decode : string -> (reply, string) result
(** One reply line, or why it is not one (["unparsable: ..."],
    ["missing ok field"], ["missing result"], ["missing error"]). *)

val read_request :
  in_channel ->
  [ `Line of string | `Too_long of string | `Eof | `Broken of string ]
(** The next non-blank line.  A line past 8 MiB is skipped to its
    newline without being kept and comes back as [`Too_long msg]; the
    input stays readable.  End-of-input *inside* a record (the peer
    died mid-write) or a channel error is [`Broken msg], never a
    partial line handed to the parser. *)

val read_reply : in_channel -> (string, string) result
(** One response line for a client-side roundtrip.  Clean EOF (the
    server closed before answering) and mid-line EOF are both framing
    [Error]s; a reply is never a partial record. *)
