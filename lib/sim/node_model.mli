(** Shared per-node execution arithmetic.

    {!Engine.simulate} (one plan, exclusive DDR bandwidth) and the
    board-level runtime co-simulator ([lib/runtime], many tenants
    contending for bandwidth) must agree *exactly* when a single tenant
    runs alone — not to a tolerance, but bit for bit, because the
    runtime's single-tenant report is defined as "what [lcmm sim] would
    have said".  The only way to guarantee that across refactors is for
    both engines to call the same functions with the same operation
    order, which is what this module is: the per-node latency-component
    and prefetch-release logic of Eq. 1, factored out of the isolated
    engine. *)

type binding = Compute | Input_stream | Weight_stream | Output_stream

val pinned_fraction :
  Lcmm.Metric.t -> on_chip:Lcmm.Metric.Item_set.t -> int -> float
(** Fraction of node [id]'s weight tensor resident on chip (slices pin
    independently; an unsliced tensor is 0 or 1). *)

val pinned_weight :
  Lcmm.Metric.t -> on_chip:Lcmm.Metric.Item_set.t -> int -> bool

val released_edges :
  ?weights_resident:bool -> ?prefetch:Lcmm.Prefetch.t ->
  Lcmm.Metric.t -> on_chip:Lcmm.Metric.Item_set.t -> int ->
  Lcmm.Prefetch.edge list array
(** Per source node, the prefetch edges (targets pinned on chip) whose
    jobs are released when that node starts, in release order.  Empty
    everywhere with [weights_resident] or without a PDG. *)

val has_edge : Lcmm.Prefetch.edge list array -> int -> bool array
(** [has_edge released n]: whether each node is the target of some
    released prefetch edge. *)

val demand_load :
  ?weights_resident:bool -> Lcmm.Metric.t ->
  on_chip:Lcmm.Metric.Item_set.t -> has_edge:bool array ->
  Accel.Latency.profile -> float option
(** Seconds of the on-demand load a pinned weight without a prefetch
    edge pays before its node starts; [None] when no such load is due. *)

val if_time : on_chip:Lcmm.Metric.Item_set.t -> Accel.Latency.profile -> float
(** Input-streaming seconds of the node's off-chip feature inputs. *)

val of_time : on_chip:Lcmm.Metric.Item_set.t -> Accel.Latency.profile -> float
(** Output write-back seconds (0 when the output value is pinned). *)

val duration_and_binding :
  latc:float -> if_time:float -> wt_component:float -> of_time:float ->
  binding * float
(** Eq. 1 for one node: the max component and which one bound it (ties
    keep the earlier component, [Compute] first). *)

val of_stream_bytes : on_chip:Lcmm.Metric.Item_set.t -> Accel.Latency.profile -> int
(** DDR bytes the node's off-chip output writes back. *)
