(** Sensitivity of the UMM/LCMM comparison to the memory-system
    calibration (an extension beyond the paper).

    The two calibration constants of this reproduction — achieved DDR
    efficiency and per-tile transaction overhead — were fixed globally
    before recording results.  These sweeps show how the headline
    speedup moves as each knob varies, so a reader can judge how much of
    the conclusion depends on the calibration. *)

type point = {
  knob_value : float;
  umm_latency : float;   (** Seconds, UMM design at this setting. *)
  lcmm_latency : float;  (** Seconds, LCMM plan at this setting. *)
  speedup : float;
}

val ddr_efficiency_sweep :
  ?umm_tile:Accel.Tiling.t -> ?lcmm_tile:Accel.Tiling.t -> Tensor.Dtype.t ->
  Dnn_graph.Graph.t -> point list
(** Sweep achieved/theoretical DDR bandwidth over 0.4..1.0 in steps of
    0.1.  Lower efficiency means a more memory-bound baseline and a
    larger LCMM win.  Tile shapes can be pinned per style (pass the DSE
    winners) so the sweep isolates the memory system from re-tiling
    effects; the default tile is used otherwise. *)

val burst_overhead_sweep :
  ?umm_tile:Accel.Tiling.t -> ?lcmm_tile:Accel.Tiling.t -> Tensor.Dtype.t ->
  Dnn_graph.Graph.t -> point list
(** Sweep per-transaction overhead in seconds over 0..1 µs. *)

val pp_points : Format.formatter -> string -> point list -> unit
(** Aligned table with the given knob label. *)
