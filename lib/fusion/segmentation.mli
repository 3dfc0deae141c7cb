(** Fused-layer segmentation search (LoopTree-style fuse groups).

    A *segment* is a contiguous run of nodes [first..last] (node ids are
    execution order) whose intermediate feature values never touch DDR:
    they live as double-buffered row stripes ("slabs") in the SRAM
    headroom left beside the plan's pinned tensors.  A segment is legal
    iff

    - no [Input] or [Dense] node lies inside it (execution barriers:
      the systolic array reconfigures around them);
    - every feature value produced strictly inside it is consumed, and
      only by nodes inside it — a liveness/shortcut edge crossing the
      segment boundary forces a cut;
    - the slabs of its internal values fit the SRAM headroom
      ([headroom_bytes]), alongside the resident tensors the headroom
      already excludes.

    Fusing is not free: inside a segment the spatial tiles of every
    layer must cover the receptive field its downstream members need,
    so each node recomputes a halo of [sum (kernel_h - 1) / tile_th]
    extra rows per downstream member — charged as a multiplicative
    compute-time factor.  The searcher prices each candidate segment
    exactly (Eq. 1 per member under the extended allocation, halo
    factor on compute) and picks the optimal disjoint segment cover by
    dynamic programming over cut positions. *)

type segment = {
  first : int;  (** First member node id. *)
  last : int;   (** Last member node id, inclusive. *)
  internal : int list;
      (** Value ids kept on chip inside the segment (increasing);
          excludes values the base plan already pins. *)
  scales : (int * float) list;
      (** Per-member compute-time factor [(node id, >= 1.0)], from the
          halo recompute of downstream members. *)
  slab_bytes : int;   (** SRAM the internal stripes occupy. *)
  benefit_seconds : float;  (** Exact Eq. 1 seconds saved, > 0. *)
  ddr_bytes_saved : int;
      (** DDR bytes the internal values no longer move. *)
}

type result = {
  segments : segment list;  (** Disjoint, increasing by [first]. *)
  total_benefit : float;
  evaluated : int;          (** Legal candidate segments costed. *)
}

val search :
  max_segment:int ->
  headroom_bytes:int ->
  tile_th:int ->
  dtype:Tensor.Dtype.t ->
  Lcmm.Metric.t ->
  on_chip:Lcmm.Metric.Item_set.t ->
  result
(** Evaluate every legal candidate segment of 2..[max_segment] nodes
    against the metric and allocation, then DP over cut positions for
    the best disjoint cover.  Only segments with strictly positive benefit are ever selected, so
    a graph with nothing to fuse yields {!empty}. *)
