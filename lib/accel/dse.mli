(** Tile-configuration design-space exploration.

    The frameworks the paper integrates with ([12, 18, 22]) pick the PE
    array and tile buffer structure by DSE; LCMM runs after that.  This
    module reproduces the tile half of that search: sweep a grid of tile
    shapes, keep those whose compute resources fit the device, and pick
    the one minimizing whole-network UMM latency.  Ties break toward
    smaller tile buffers (leaving more SRAM to LCMM).

    The two design styles differ only in their clock, so one sweep scores
    both: {!run_both} builds one {!Latency.table}, checks each (DSP
    fraction, tile) candidate's fit once, sweeps each tile's streaming
    times once and sums both styles' totals in one pass over the nodes per
    candidate; only the compute times are per style.  {!run} is the same
    sweep for one style.  A compile runs {!run_both}; the runtime, which
    plans only the LCMM design, runs {!run}.

    The table a sweep compiled comes back with its design point, so the
    planner profiles the chosen design from it
    ([Lcmm.Framework.prepare]) and a compile reads the graph's shapes
    once. *)

type result = {
  config : Config.t;
  umm_latency : float;      (** Seconds per inference under UMM. *)
  resources : Fpga.Resource.t;
  table : Latency.table;
      (** The graph's Eq. 1 inputs the sweep ran on, for [config]'s dtype
          and fusion setting (fusion off). *)
}

type designs = { umm : result; lcmm : result }
(** The best design point of each style for one graph. *)

val candidate_tiles : unit -> Tiling.t list
(** The sweep grid: tm/tn in powers of two 16..64, square spatial tiles
    7..56. *)

val run :
  ?device:Fpga.Device.t -> style:Config.style ->
  Tensor.Dtype.t -> Dnn_graph.Graph.t -> result
(** Explore the {!candidate_tiles} at five DSP budgets and return the
    best design point of [style] for the graph.  Compute and streaming
    times are swept once per PE array and once per tile
    ({!Latency.compute_times}, {!Latency.streaming_times}), so each
    candidate's latency is one fold ({!Latency.umm_totals_until}), equal
    bit for bit to [Latency.umm_total (Latency.profiles config table)].  Raises
    [Invalid_argument] when no candidate fits the device. *)

val run_both :
  ?device:Fpga.Device.t -> Tensor.Dtype.t -> Dnn_graph.Graph.t -> designs
(** [run ~style:Umm] and [run ~style:Lcmm] from one sweep: each field is
    equal, config, resources and latency bits, to the one-style call, and
    both carry the one table.  It shares the table, the fit checks, the at
    most 36 streaming sweeps and the up to 180 folds, each of which sums
    both styles, and runs 5 compute sweeps per style.  Raises like
    {!run}. *)
