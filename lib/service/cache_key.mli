(** Content-addressed cache keys for compiled allocation plans.

    A key is the hex MD5 of a canonical byte string covering everything
    the four LCMM passes read: the serialized graph ({!canonical}, the
    {!Dnn_serial.Codec} compact form), the DSE inputs that fix the
    accelerator design point (dtype + device), and every
    {!Lcmm.Framework.options} field.  Two requests collide iff the
    passes would compute the identical plan — the passes are pure
    functions of exactly these inputs.

    The [_of_canonical] entry points take the graph's canonical bytes
    instead of the graph, so a caller that serves one graph many times
    (the engine's zoo models) serializes it once.  The graph-taking
    forms serialize and delegate; both give the same digest.  Hashing
    builds no concatenated string: the NUL-joined parts are copied into
    a spare buffer shared by every domain and thread, one user at a
    time. *)

val canonical : Dnn_graph.Graph.t -> string
(** [Dnn_serial.Codec.to_string ~pretty:false]: the graph bytes a key
    covers. *)

val hash : string list -> string
(** Hex MD5 of the parts joined with ["\x00"]: equal to
    [Digest.to_hex (Digest.string (String.concat "\x00" parts))]. *)

val request_digest_of_canonical :
  ?extra:string list -> dtype:Tensor.Dtype.t -> device:Fpga.Device.t ->
  options:Lcmm.Framework.options -> string -> string
(** Key for a DSE-then-plan request ([compile]/[simulate]) on a graph
    given by its {!canonical} bytes: the design point is not known up
    front, but the DSE is a deterministic function of (graph, dtype,
    device), so keying on those is equivalent. *)

val request_digest :
  ?extra:string list -> dtype:Tensor.Dtype.t -> device:Fpga.Device.t ->
  options:Lcmm.Framework.options -> Dnn_graph.Graph.t -> string
(** {!request_digest_of_canonical} on [canonical g]. *)

val run_digest_of_canonical :
  ?extra:string list -> dtype:Tensor.Dtype.t -> device:Fpga.Device.t ->
  options:Lcmm.Framework.options -> (string * string) list -> string
(** Key for a multi-tenant [run] request: every tenant graph's
    {!canonical} bytes plus a per-tenant tag (count, priority, arrival)
    in submission order; [extra] folds in the board-level knobs
    (arbitration, scheduler, partition policy, overcommit).  The
    runtime is a deterministic function of exactly these inputs. *)
