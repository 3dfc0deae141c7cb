(** Replayable differential-verification failure cases.

    When the [lib/check] harness finds a graph violating an oracle, it
    persists the (shrunk) counterexample as a versioned JSON document so
    the exact failure can be re-run later with [lcmm check --replay].
    The document carries everything the oracle context needs to be
    reconstructed deterministically: the graph itself (via {!Codec}),
    the precision, the capacity the allocators ran under, and the seed
    bookkeeping of the run that found it. *)

type t = {
  seed : int;            (** Seed of the run that found the case. *)
  case_index : int;      (** Index of the case within that run. *)
  oracle : string;       (** Name of the violated oracle. *)
  message : string;      (** The oracle's failure description. *)
  dtype : Tensor.Dtype.t;
  capacity_fraction : float;
      (** Tensor-SRAM capacity as a fraction of the total virtual-buffer
          footprint the case was checked under. *)
  graph : Dnn_graph.Graph.t;  (** The shrunk counterexample. *)
}

val write_file : path:string -> t -> unit

val read_file : path:string -> (t, string) result
(** [Error] covers unreadable files as well as malformed content. *)
