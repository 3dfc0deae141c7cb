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

    {!post} is the one place that reads [Framework.options.fusion]:
    with the flag off it returns the base plan itself, so fusion-off
    planning is byte-identical to a build without this library. *)

type t = {
  base : Lcmm.Framework.plan;
  plan : Lcmm.Framework.plan;
      (** The effective plan every existing evaluator can consume: the
          effective metric ({!Sim.Fused.effective_metric}), the base
          allocation plus every segment-internal value, the fused
          latency, and as [tensor_sram_bytes] the base grant + FIFO +
          widest segment's slabs.  When the pass decided nothing it is
          the base plan with the same metric, allocation and latency.
          Either way its [pass_times] are the base plan's plus the
          pass's own wall clock in [segmentation_us]. *)
  segments : Segmentation.segment list;
  streamed : int list;  (** Node ids whose spilled weight streams. *)
  fifo_bytes : int;     (** 0 when nothing streams. *)
  predicted_latency : float;
      (** Fused Eq. 1 total + prefetch stalls, re-evaluated even when the
          pass decided nothing ([plan] then keeps the base latency). *)
  traffic : Lcmm.Traffic.t;       (** DDR bytes under fusion. *)
  base_traffic : Lcmm.Traffic.t;  (** DDR bytes of the base plan. *)
}

val apply : Lcmm.Framework.plan -> t
(** Run the pass whatever [base.options.fusion] says: fuse groups of up
    to 8 nodes, and a streaming FIFO of 4 {!Lcmm.Dnnk.block_bytes}
    blocks (128 KiB) when it fits beside the resident tensors.  Never
    returns a plan slower than the base (a safety net drops every
    decision if the exact re-evaluation ever disagreed with the
    search's pricing). *)

val post : Lcmm.Framework.plan -> Lcmm.Framework.plan * t option
(** The fusion gate every planner caller goes through.  With
    [options.fusion] off: the plan itself (physically) and [None].  On:
    [(t.plan, Some t)] from {!apply}, whose pass times include the
    segmentation time whether or not the pass decided anything. *)

val effective_plan : t -> Lcmm.Framework.plan
(** [t.plan]. *)

val fused_nodes : t -> int
(** Nodes covered by the fused segments. *)

val ddr_bytes_saved : t -> int
(** Base minus fused total DDR bytes per inference; >= 0. *)
