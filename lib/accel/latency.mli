(** Per-layer latency model (the paper's Eq. 1).

    For each node the model produces its compute time and one transfer
    term per data source: each input feature value it reads (resolved
    through transparent concats), its weight tensor and its output value.
    Compute and transfers overlap through double buffering, so a node's
    latency is the maximum of its compute time and its per-interface
    streaming times — an on-chip tensor contributes zero streaming time.

    Transfer terms include the tile-reload factors of the design's
    {!Tiling} configuration: streamed inputs are re-read once per
    output-channel group (plus halo overread), streamed weights once per
    spatial tile.  A pinned tensor is read from SRAM and pays no reload
    at all; pinned weights are loaded exactly once per inference, off the
    critical path when prefetching succeeds.

    A {!table} is the one compile of a graph's Eq. 1 inputs: its shapes,
    resolved source values and byte sizes, for one dtype and fusion
    setting.  Everything else reads the table, not the graph: the DSE
    sweeps it ({!compute_times}, {!streaming_times}), returns it with its
    design point, and the planner builds the chosen design's
    {!profiles} from it. *)

type profile = {
  node_id : int;
  latc : float;                    (** Compute seconds. *)
  if_values : int array;
      (** The input terms' value ids, in operator input order (a value
          read twice appears twice).  The three [if_] arrays have one
          entry per input term, in this order. *)
  if_secs : float array;
      (** Per input term, its streaming seconds. *)
  if_bytes : int array;
      (** Per input term, its DDR bytes streamed incl. tile reloads. *)
  wt_term : float;                 (** Weight streaming seconds; 0 if none. *)
  wt_load_once : float;            (** Seconds to load the weights once. *)
  of_term : float;                 (** Output write-back seconds. *)
  of_value : int option;           (** Value id written, when one exists. *)
  wt_stream_bytes : int;           (** DDR bytes for streamed weights. *)
  wt_once_bytes : int;             (** Bytes of one whole weight load. *)
  of_stream_bytes : int;           (** DDR bytes written back. *)
}

type table
(** Per-node shapes, source values and byte sizes of one graph, for one
    dtype and fusion setting. *)

val table : Tensor.Dtype.t -> fused_eltwise:bool -> Dnn_graph.Graph.t -> table

val profiles : Config.t -> table -> profile array
(** One profile per node, indexed by node id: a per-node pass over the
    table on the config's design point.  Raises [Invalid_argument] when
    the config's dtype or fusion setting is not the table's. *)

val profile_graph : Config.t -> Dnn_graph.Graph.t -> profile array
(** [profiles cfg (table cfg.dtype ~fused_eltwise:cfg.fused_eltwise g)],
    for a caller that has no table. *)

(** {2 Design sweeps}

    A node's UMM latency is [max latc streaming]: [latc] depends only on
    the PE array and clock, the streaming time only on the tile, the
    bandwidth and the burst overhead.  A sweep over design points
    therefore evaluates each half of a table per distinct parameter set:
    the DSE ({!Dse.run_both}) runs one {!streaming_times} over every tile
    it keeps, whatever the number of styles, and one {!compute_times} per
    PE array and clock.  Both halves use the arithmetic {!profiles} uses,
    so the totals are bit-identical to [umm_total (profiles cfg t)]. *)

val compute_times : Config.t -> table -> float array
(** Each node's compute seconds on the config's PE array and clock.
    Raises [Invalid_argument] when the config's dtype or fusion setting
    is not the table's. *)

val streaming_times : Config.t -> table -> Tiling.t array -> float array array
(** [streaming_times cfg t tiles] holds, per tile, each node's UMM
    streaming seconds (the slowest of its input, weight and output
    interfaces) on [{ cfg with tile }]: the tile comes from [tiles], the
    bandwidth and burst overhead from [cfg], whose own tile is not read.
    Sweeping the tiles together shares a node's trip-count divisions per
    distinct tile dimension and its per-source quotients per (tm, th, tw),
    and allocates nothing per node.  Raises like {!compute_times}. *)

val umm_totals_until :
  bounds:float array -> compute:float array array -> streaming:float array ->
  float array -> unit
(** [umm_totals_until ~bounds ~compute ~streaming totals] sets
    [totals.(k)] to the whole-network UMM latency of the design whose
    compute times are [compute.(k)], on one tile's row of
    {!streaming_times}: one pass over the nodes for one or two designs
    (the DSE's styles), each summed in node order.  The pass stops once
    every sum exceeds its [bounds.(k)].  Every node adds a term [>= 0],
    so a [totals.(k) <= bounds.(k)] is the exact total, equal bit for
    bit to [umm_total] of the matching profiles, and a [totals.(k) >
    bounds.(k)] means the total exceeds the bound too.  Raises
    [Invalid_argument] unless there are one or two designs. *)

val umm_node_latency : profile -> float
(** Eq. 1 for one node with everything streamed from DDR:
    [max(latc, sum of if terms, wt term, of term)], the input terms
    summed in order from 0.  Under an allocation, Eq. 1 is
    [Lcmm.Metric.node_latency_on]. *)

val umm_total : profile array -> float
(** Whole-network latency under uniform memory management (nodes run
    sequentially, as in the paper's architecture). *)

val is_memory_bound : profile -> bool
(** True when some streaming term exceeds the node's compute time under
    UMM — the paper's memory-bounded layer classification. *)

