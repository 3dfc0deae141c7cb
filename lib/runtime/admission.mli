(** Tenant admission control.

    Before any co-simulation, each tenant asks to join the board with
    its unconstrained resource appetite: the tensor SRAM its solo plan
    would pin and the average DDR bandwidth its isolated run consumes.
    The controller walks tenants in priority order and admits each one
    only while the whole admitted set stays feasible:

    - the SRAM partition over the admitted set must grant every member
      at least [min(demand, Lcmm.Dnnk.block_bytes)] — one DNNK
      allocation block, below which a partition cannot hold any pinned
      tensor.  Partitions never over-commit the budget (see
      {!Partition.split}) and never shrink an admitted tenant below this
      minimum useful share;
    - the summed bandwidth demand must stay within [overcommit] times
      the board bandwidth (a lone tenant is exempt — with nobody to
      contend with it merely runs at its isolated speed).

    A tenant that can never run (its minimum SRAM share exceeds the
    whole board budget) is rejected outright; one that merely does not
    fit *now* is queued, to be resubmitted when the board drains. *)

type demand = {
  sram_bytes : int;   (** Unconstrained tensor-SRAM appetite. *)
  bandwidth : float;  (** Isolated average DDR bytes/second. *)
}

type decision =
  | Admitted of { grant_bytes : int }  (** Final SRAM partition share. *)
  | Queued of { reason : string }
  | Rejected of { reason : string }

val decide :
  partition:Partition.policy ->
  budget_bytes:int ->
  board_bandwidth:float ->
  overcommit:float ->
  demand array ->
  decision array
(** Decisions index-aligned with the demands (which must be in priority
    order, highest first).  Admitted grants always sum to at most
    [budget_bytes].  Raises [Invalid_argument] when [overcommit <= 0]. *)
