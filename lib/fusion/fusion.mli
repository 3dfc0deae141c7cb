(** Fused-layer segments and weight streaming as planner dimensions.

    A post-pass over a {!Lcmm.Framework.plan} that adds the two DDR
    levers the base planner lacks (DESIGN §14):

    - **weight streaming** (AutoWS-style): a spilled whole weight whose
      tiled streaming re-reads the tensor ([wt_term > wt_load_once])
      instead flows once per inference through a bounded on-chip FIFO.
      The FIFO footprint is charged to the plan once, globally; the
      steady-state DDR rate — one full load — is what the latency
      model, traffic accounting and simulator then see.
    - **fused-layer segments** (LoopTree-style): {!Segmentation.search}
      proposes legal fuse groups whose intermediate features live as
      SRAM stripes and never touch DDR, priced exactly against the
      halo-recompute overhead.

    The pass is gated on [Framework.options.fusion]: with the flag off
    {!apply} returns an inert wrapper whose metric is *physically* the
    base plan's and {!effective_plan} returns the base plan itself, so
    fusion-off planning is byte-identical to a build without this
    library.  Decisions are deterministic at any [?pool] size. *)

type t = {
  base : Lcmm.Framework.plan;
  segments : Segmentation.segment list;
  streamed : int list;  (** Node ids whose spilled weight streams. *)
  fifo_bytes : int;     (** 0 when nothing streams. *)
  metric : Lcmm.Metric.t;
      (** Effective metric ({!Sim.Fused.effective_metric}); physically
          the base metric when the pass decided nothing. *)
  on_chip : Lcmm.Metric.Item_set.t;
      (** Base allocation plus every segment-internal value. *)
  predicted_latency : float;  (** Fused Eq. 1 total + prefetch stalls. *)
  traffic : Lcmm.Traffic.t;       (** DDR bytes under fusion. *)
  base_traffic : Lcmm.Traffic.t;  (** DDR bytes of the base plan. *)
  peak_sram_bytes : int;
      (** Base tensor grant + FIFO + widest segment's slabs. *)
  segmentation_us : float;  (** Wall clock of the pass; 0 when inert. *)
}

val apply : ?pool:Lcmm.Pool.t -> Lcmm.Framework.plan -> t
(** Run the pass: fuse groups of up to 8 nodes, and a streaming FIFO of
    4 {!Lcmm.Dnnk.block_bytes} blocks (128 KiB) when it fits beside the
    resident tensors.  Inert unless [base.options.fusion]; never returns a
    plan slower than the base (a safety net drops every decision if the
    exact re-evaluation ever disagreed with the search's pricing).
    Its wall clock is reported only in the result's [segmentation_us]. *)

val active : t -> bool
(** True when the pass decided anything (a segment or a stream). *)

val effective_plan : t -> Lcmm.Framework.plan
(** The plan every existing evaluator can consume: effective metric,
    extended allocation, fused latency, peak SRAM, and pass times
    including [segmentation_us].  Physically the base plan when
    {!active} is false — fusion-off output stays byte-identical. *)

val fingerprint : t -> string
(** {!Lcmm.Framework.fingerprint} of the base plan extended with every
    fusion decision (segments with members/scales/slabs, streamed ids,
    FIFO bytes, fused latency and traffic at full float precision) —
    the parallel-determinism property digests this. *)

val fused_nodes : t -> int
(** Nodes covered by the fused segments. *)

val ddr_bytes_saved : t -> int
(** Base minus fused total DDR bytes per inference; >= 0. *)
