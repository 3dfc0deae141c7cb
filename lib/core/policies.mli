(** Allocation policies: the paper's algorithm and the alternatives it is
    measured against.

    Besides the UMM baseline and DNNK itself (both compensation
    variants), the module models the two design styles of the paper's
    Table 3 — Cloud-DNN [3] (keep every intermediate feature map on chip)
    and TGPA [17] (stream feature tiles between pipelined accelerator
    stages) — plus a lazy-greedy knapsack and exact subset enumeration
    used by the ablation bench and the correctness tests. *)

type policy =
  | Umm_policy    (** Everything streams from DDR. *)
  | Greedy        (** Lazy greedy by marginal gain per block. *)
  | Exact_small   (** Optimal subset by enumeration (<= 20 buffers). *)
  | All_features  (** Cloud-DNN style: all feature maps pinned. *)
  | Stream_tile   (** TGPA style: features never touch DDR, tile cost. *)
  | Dnnk_policy of Dnnk.compensation

type outcome = {
  policy_name : string;
  on_chip : Metric.Item_set.t;
  latency : float;       (** Exact Eq. 1 total for the allocation. *)
  used_bytes : int;      (** Block-rounded SRAM demand. *)
  feasible : bool;       (** Demand fits the given capacity. *)
}

val run :
  Metric.t -> dtype:Tensor.Dtype.t -> capacity_bytes:int -> Vbuffer.t list ->
  policy -> outcome
(** Evaluate one policy over the given virtual buffers.  [Exact_small]
    raises [Invalid_argument] beyond 20 buffers. *)
