(** Tile-configuration design-space exploration.

    The frameworks the paper integrates with ([12, 18, 22]) pick the PE
    array and tile buffer structure by DSE; LCMM runs after that.  This
    module reproduces the tile half of that search: sweep a grid of tile
    shapes, keep those whose compute resources fit the device, and pick
    the one minimizing whole-network UMM latency.  Ties break toward
    smaller tile buffers (leaving more SRAM to LCMM). *)

type result = {
  config : Config.t;
  umm_latency : float;      (** Seconds per inference under UMM. *)
  resources : Fpga.Resource.t;
}

val candidate_tiles : unit -> Tiling.t list
(** The sweep grid: tm/tn in powers of two 16..64, square spatial tiles
    7..56. *)

val run :
  ?device:Fpga.Device.t -> style:Config.style ->
  Tensor.Dtype.t -> Dnn_graph.Graph.t -> result
(** Explore the {!candidate_tiles} at five DSP budgets and return the
    best design point for the graph.  Compute and streaming times are
    swept once per PE array and once per tile ({!Latency.compute_times},
    {!Latency.streaming_times}), so each candidate's latency is one fold,
    equal bit for bit to [Latency.umm_total (Latency.profile_graph config
    g)].  Raises [Invalid_argument] when no candidate fits the device. *)
