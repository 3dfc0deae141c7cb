(** Buffer splitting (paper section 3.4).

    Sharing makes spilling coarse: if DNNK spills a virtual buffer, every
    tensor inside it goes to DDR, including small tensors with large
    latency reductions ("misspilling").  The pass repairs this greedily:
    take the largest spilled multi-member buffer, inject a false
    interference edge between its size-defining tensor and its next
    member, re-color and re-run DNNK; keep the result if the predicted
    latency improved and repeat until no improvement, no candidate, or
    the iteration bound. *)

type outcome = {
  result : Dnnk.result;
  iterations : int;       (** Splitting rounds actually applied. *)
  false_edges : int;      (** Edges injected in total. *)
  history : float list;
      (** Objective trajectory: the predicted latency of the initial
          allocation followed by each accepted re-run's, in order.
          Strictly decreasing by construction (the acceptance test
          requires an improvement beyond 1e-12). *)
  converged : bool;
      (** [true] when the loop stopped because no candidate improved
          (or none existed); [false] when it ran into
          [max_iterations]. *)
}

val run :
  ?max_iterations:int -> ?compensation:Dnnk.compensation ->
  ?strategy:Coloring.strategy -> ?workspace:Dnnk.workspace ->
  Metric.t -> Interference.t -> sizes:int array -> capacity_bytes:int ->
  Dnnk.result -> outcome
(** [run metric interference ~sizes ~capacity_bytes initial] improves on
    [initial] (the DNNK result for the current coloring of
    [interference]).  The interference graph is mutated (false edges
    accumulate).  [max_iterations] defaults to 16; [workspace] lets the
    re-allocation rounds share one set of DNNK scratch arrays. *)
