(** DNNK — the DNN-knapsack on-chip memory allocator (paper Alg. 1).

    Virtual buffers are knapsack items: weight = buffer size in URAM-block
    granularity, value = the latency reduction its member tensors bring.
    Because per-node latency is a [max] over transfer terms, member values
    interact (pinning the second-largest term of a node buys nothing until
    the largest is pinned too); the paper handles this with *pivot
    compensation* against the DP memo.  Two variants are provided:

    - {!Table_approx} — the paper's scheme: the gain of adding a buffer at
      DP cell (i, j) is evaluated against the allocation bits the memo
      recorded for earlier buffers at the source column, exactly as
      Alg. 1's [pbuf_table] reads.  One DP pass.
    - {!Exact_iterative} — re-seeds a compensation-free DP with marginal
      gains measured against the previously chosen allocation and keeps
      the best exactly-evaluated result; converges in a few rounds and
      serves as the stronger reference in the ablation bench.

    Both variants process buffers in decreasing static-gain order (so the
    row memo sees a node's dominant terms first), take everything when
    the whole problem fits (pinning more never hurts), and finish with a
    greedy sweep-up that pulls back spilled buffers whose marginal gain
    became positive once their nodes' larger terms were pinned — value
    the max-structure hides from any single DP pass. *)

type compensation = Table_approx | Exact_iterative

type workspace
(** Scratch arrays reused across allocator calls: the DP arrays, which
    are cleared rather than reallocated on reuse, the gain and row-key
    buffers, the per-row memo table (emptied per row by a generation
    bump), and the row-owner and membership arrays over the metric's
    dense item indices, grown on demand.  The splitting loop re-runs the
    allocator many times and passes one workspace through all of them
    to skip the reallocation.  Every {!solve} builds its compensation
    state afresh, so a workspace holds no answer from an earlier call
    and is valid against any metric.  A workspace is one domain's: two
    calls running at once need two. *)

val workspace : unit -> workspace

type result = {
  chosen : Vbuffer.t list;       (** Buffers granted physical SRAM. *)
  spilled : Vbuffer.t list;      (** Buffers left in DDR. *)
  on_chip : Metric.Item_set.t;   (** Items of the chosen buffers. *)
  predicted_latency : float;     (** Exact Eq. 1 total for the result. *)
  capacity_blocks : int;
  used_blocks : int;
}

val block_bytes : int
(** Allocation granularity: one URAM block (32 KiB). *)

val blocks_of_bytes : int -> int
(** Size in whole blocks, rounding up. *)

type compiled
(** A buffer set compiled for the knapsack: the part of the allocator
    that does not read the capacity.  It holds the buffers in
    decreasing static-gain order (the DP's row order) and, per row, its
    affected nodes, its size in blocks and its members' dense item
    indices: O(items + affected nodes) words, no DP or compensation
    table.  Nothing writes it after {!compile}, so one value may be
    solved at any number of capacities, from any domain. *)

val compile : ?workspace:workspace -> Metric.t -> Vbuffer.t list -> compiled
(** Order and index the buffers.  [workspace] (fresh by default) lends
    its membership mark for the static gains.  Every member of [vbufs]
    must be an item of [metric] (see {!Metric.item_index}). *)

val solve :
  ?compensation:compensation -> ?workspace:workspace -> compiled ->
  capacity_bytes:int -> result
(** Run the allocator at one capacity: the all-fit exit, or the
    compensation tables, the DP and the sweep-up.  {!Exact_iterative}
    refinement runs at most 4 rounds.  [workspace] (fresh by default)
    lends its scratch arrays; the result never depends on it.  Raises
    [Invalid_argument] on negative capacity. *)

val allocate :
  ?compensation:compensation -> ?workspace:workspace ->
  Metric.t -> capacity_bytes:int -> Vbuffer.t list -> result
(** [solve (compile metric vbufs) ~capacity_bytes], for a buffer set
    solved once.  Raises [Invalid_argument] on negative capacity before
    compiling. *)

val drop_while :
  Metric.t -> pick:(result -> benefit:(Vbuffer.t -> float) -> Vbuffer.t option) ->
  result -> result * Vbuffer.t list
(** Drop chosen buffers from an allocation one at a time, while [pick]
    names one: its members leave [on_chip], it moves to the front of
    [spilled], [predicted_latency] is recomputed exactly and
    [used_blocks] shrinks by its blocks.  [benefit vb] is the latency
    [vb]'s members save against the rest of the current allocation.
    Returns the final result and the dropped buffers in drop order. *)

val evict_to_capacity :
  Metric.t -> capacity_bytes:int -> result -> result * Vbuffer.t list
(** Degraded-mode eviction — the inverse of the knapsack.  When the
    capacity shrinks under a live allocation (an SRAM bank drops out),
    evict chosen buffers in increasing benefit-density order (marginal
    gain against the current set per occupied block) until the
    survivors fit [capacity_bytes].  Returns the shrunken result (with
    [capacity_blocks] updated) and the evicted buffers in eviction
    order.  Raises [Invalid_argument] on negative capacity. *)
