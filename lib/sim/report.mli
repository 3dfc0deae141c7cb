(** Aggregation of simulator runs for the paper's per-block figures.

    Fig. 8 plots per-inception-block throughput for GoogLeNet; the report
    folds node timings into the graph's block tags and computes each
    block's effective Tops from its MAC count and simulated residence
    time. *)

type block_row = {
  block : string;
  seconds : float;      (** Simulated wall time spent in the block. *)
  macs : int;
  tops : float;         (** 2 * macs / seconds / 1e12. *)
}

val per_block : Dnn_graph.Graph.t -> Engine.run -> block_row list
(** Rows for every tagged block, in first-appearance order; untagged
    nodes are skipped. *)

val pp_rows : Format.formatter -> block_row list -> unit
(** Aligned text table. *)
