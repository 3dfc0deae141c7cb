(** Content-addressed cache keys for compiled allocation plans.

    A key is the hex MD5 of a canonical byte string covering everything
    the four LCMM passes read: the serialized graph ({!Dnn_serial.Codec}
    compact form), the DSE inputs that fix the accelerator design point
    (dtype + device), and every {!Lcmm.Framework.options} field.  Two
    requests collide iff the passes would compute the identical plan —
    the passes are pure functions of exactly these inputs. *)

val request_digest :
  ?extra:string list -> dtype:Tensor.Dtype.t -> device:Fpga.Device.t ->
  options:Lcmm.Framework.options -> Dnn_graph.Graph.t -> string
(** Key for a DSE-then-plan request ([compile]/[simulate]): the design
    point is not known up front, but the DSE is a deterministic function
    of (graph, dtype, device), so keying on those is equivalent. *)

val run_digest :
  ?extra:string list -> dtype:Tensor.Dtype.t -> device:Fpga.Device.t ->
  options:Lcmm.Framework.options -> (Dnn_graph.Graph.t * string) list ->
  string
(** Key for a multi-tenant [run] request: every tenant graph plus a
    per-tenant tag (count, priority, arrival) in submission order;
    [extra] folds in the board-level knobs (arbitration, scheduler,
    partition policy, overcommit).  The runtime is a deterministic
    function of exactly these inputs. *)
