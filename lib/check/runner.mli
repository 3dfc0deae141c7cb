(** The differential-verification harness.

    Drives {!Gen} through {!Oracle}: generate [count] random graphs from
    a seed, run every requested oracle on each, shrink any failure with
    {!Shrink} and persist it as a replayable {!Dnn_serial.Case}
    document.  Fully deterministic: case [i] of seed [s] derives its
    RNG from [(s, i)] alone, so a failure report pinpoints a
    reproducible input. *)

type failure = {
  case_index : int;
  family : string;          (** Generator family of the original graph. *)
  oracle : string;
  message : string;         (** Failure message on the shrunk graph. *)
  original_nodes : int;
  shrunk_nodes : int;
  case : Dnn_serial.Case.t; (** The persisted, replayable document. *)
  saved_path : string option; (** Where it was written, when it was. *)
}

type outcome = {
  cases : int;              (** Graphs generated and checked. *)
  oracle_runs : int;        (** Individual oracle evaluations. *)
  failures : failure list;  (** Empty when every invariant held. *)
}

val default_max_nodes : int

val run :
  ?oracles:Oracle.t list ->
  ?save_dir:string ->
  ?max_nodes:int ->
  seed:int ->
  count:int ->
  unit ->
  outcome
(** Run the harness.  [max_nodes] (default {!default_max_nodes}) caps
    each graph; the per-case precision and capacity pressure are drawn
    from the case RNG.  With [save_dir], each (shrunk) failure is
    written there as [case-<seed>-<index>-<oracle>.json]; the directory
    is created when missing. *)

val replay :
  ?oracles:Oracle.t list -> path:string -> unit -> (outcome, string) result
(** Re-run the oracles on a persisted failure case.  The case's own
    oracle is always included even when [oracles] narrows the set.
    Failures are reported without re-persisting. *)
