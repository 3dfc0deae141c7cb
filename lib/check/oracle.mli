(** The invariant library: per-pass properties every LCMM plan must obey.

    Each oracle checks one machine-verifiable consequence of the paper's
    claims (Eq. 1, Alg. 1, the PDG construction) or of a documented
    implementation guarantee (the exact solver's optimality, the
    splitting pass's monotonicity, the simulator's relation to the
    analytical model).  All oracles run from one shared {!ctx} built on
    a fixed design point, so a violation is attributable to a pass, not
    to disagreeing configurations. *)

type ctx

val make_ctx :
  ?dtype:Tensor.Dtype.t ->
  ?capacity_fraction:float ->
  Dnn_graph.Graph.t ->
  ctx
(** Build the shared context: profiles, metric tables, eligible items,
    PDG, intervals, interference and coloring — the same pipeline
    {!Lcmm.Framework.plan} runs, but with every item eligible so the
    oracles see maximal coverage.  [capacity_fraction] (default 0.5)
    scales the allocators' capacity relative to the total virtual-buffer
    footprint, creating the capacity pressure under which allocation
    bugs actually surface; [dtype] defaults to [I16]. *)

val graph : ctx -> Dnn_graph.Graph.t

val dtype : ctx -> Tensor.Dtype.t

val capacity_fraction : ctx -> float

val umm_total : ctx -> float
(** The analytical no-reuse baseline the oracles compare against. *)

val capacity_bytes : ctx -> int
(** The derived absolute allocator capacity. *)

type t = {
  name : string;  (** Stable identifier, accepted by [lcmm check --oracle]. *)
  doc : string;   (** One-line statement of the invariant. *)
  check : ctx -> (unit, string) result;
}

val all : t list
(** Every oracle, in pass order (liveness, interference, coloring,
    prefetch, DNNK, DNNK-vs-exact, splitting, simulator, plan). *)

val names : string list

val find : string -> t option
(** Case-insensitive lookup by name. *)

val check_all : ?oracles:t list -> ctx -> (string * string) list
(** Run the given oracles (default {!all}) and collect the failures as
    [(oracle name, message)] pairs; empty means every invariant held. *)
