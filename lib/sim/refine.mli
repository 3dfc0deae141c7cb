(** Simulation-guided allocation refinement (an extension beyond the
    paper).

    The analytical prefetch pass assumes every weight load whose PDG
    source is early enough is free; the event simulator shows that
    concurrent prefetches serialize on the weight DDR channel and can
    stall late layers (GoogLeNet's inception_5b in Fig. 8 regresses under
    prefetching for exactly this reason).  The refinement loop closes
    that gap: simulate, unpin the pinned weight whose node accumulated
    the largest wait, and keep the change if the simulated total
    improved; repeat until no unpinning helps. *)

type outcome = {
  on_chip : Lcmm.Metric.Item_set.t;  (** Refined allocation. *)
  run : Engine.run;                  (** Simulation of the refined set. *)
  unpinned : Lcmm.Metric.item list;  (** Weights evicted, in order. *)
  initial_total : float;
  refined_total : float;
}

val run :
  ?prefetch:Lcmm.Prefetch.t -> Lcmm.Metric.t ->
  on_chip:Lcmm.Metric.Item_set.t -> outcome
(** Refine the allocation under the simulator, evicting at most 16
    weights.  Never returns a worse simulated total than the input
    allocation's. *)
