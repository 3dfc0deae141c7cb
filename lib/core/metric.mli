(** Allocation items, metric tables and the exact latency evaluator.

    An *item* is one pinnable unit of data: a feature value (covering the
    producer's output stream and every consumer's input stream of that
    value) or the weight tensor of one node.  The metric tables bind the
    per-node latency profiles of {!Accel.Latency} to the items they
    depend on, so allocation algorithms can ask two questions: the exact
    whole-network latency of an allocation, and the marginal latency
    reduction of pinning one more item (the paper's Eq. 2, evaluated
    against an explicit allocation instead of a static table).

    Both are folds over one Eq. 1 kernel, {!node_latency_on}, which reads
    on-chip state from a dense {!mark} over item indices.  The item-set
    entries convert their set to a mark once per call; the planner's
    passes keep their own marks and update them in place. *)

type item =
  | Feature_value of int  (** Value id = producing node id. *)
  | Weight_of of int      (** Node id owning the weight tensor. *)
  | Weight_slice of { node : int; index : int; of_k : int }
      (** One of [of_k] equal channel-group slices of a node's weight
          tensor — partial weight pinning, an extension beyond the
          paper's whole-tensor granularity.  A node's weights appear
          either as one [Weight_of] or as [of_k] slices, never both. *)

module Item_set : Set.S with type elt = item
(** Ordered with the sign of [Stdlib.compare] on every pair of items,
    without the polymorphic walk. *)

type t = private {
  graph : Dnn_graph.Graph.t;
  profiles : Accel.Latency.profile array;
  slices : int array;
      (** Weight slicing granularity per node (1 = whole tensor). *)
  node_count : int;
  item_count : int;
      (** Size of the dense item index space (see {!item_index}). *)
  slice_base : int array;
      (** Per sliced node, the dense index of its slice 0. *)
  slice_node : int array;
      (** Per slice (dense index minus [2 * node_count]), its node. *)
  consumers : int list array;
      (** Per node, [Dnn_graph.Values.consumers] of it: the value nodes
          that read its value, resolved through transparent nodes,
          ascending.  Built in one walk over the graph. *)
  last_use : int array;
      (** Per node, [Dnn_graph.Values.last_use] of it: its last
          consumer, or the node itself when it has none.  Built in the
          same walk. *)
  affected : int list array;
      (** Per dense item index, the nodes whose Eq. 1 latency depends on
          the item ([[]] for items no node queries).  A feature value's
          list is its [consumers] list, after the value itself when its
          producer writes it back. *)
  umm : float array;
      (** Per node, its Eq. 1 latency with every item off chip. *)
}

val build :
  ?weight_slices:(int -> int) -> Dnn_graph.Graph.t ->
  Accel.Latency.profile array -> t
(** [weight_slices node] (default [fun _ -> 1]) picks the slicing
    granularity per weight-carrying node; values above 1 replace the
    node's [Weight_of] item with that many [Weight_slice] items.
    The metric shares the profiles' input-term arrays.  Raises
    [Invalid_argument] when an input term of a profile names a node
    outside [0, Array.length profiles), or when a profile's [if_values]
    and [if_secs] differ in length. *)

val item_size_bytes : Tensor.Dtype.t -> t -> item -> int
(** Storage the item needs on chip. *)

val affected_nodes : t -> item -> int list
(** Nodes whose latency changes when the item's placement changes. *)

(** {2 Dense evaluation}

    Every item of a metric has a dense index in [0, item_count): feature
    value [v] is [v], the weight of node [n] is [node_count + n], and the
    slices of sliced nodes follow in node order.  The planner's passes
    evaluate Eq. 1 through one kernel, {!node_latency_on}, that reads
    on-chip state from a {!mark} over these indices: one array load and
    one integer compare per queried item, no closure and no boxed
    item. *)

val item_count : t -> int

val item_index : t -> item -> int
(** Dense index of an item.  Raises [Invalid_argument] on an item the
    metric does not know: a node out of range, or a [Weight_slice] that
    does not match the node's slicing. *)

type mark
(** A mutable set of dense item indices: one [int] slot per index and a
    current stamp, an index being in the set when its slot holds the
    stamp.  {!clear} is O(1).  Reading or writing an index at or past
    {!mark_size} raises [Invalid_argument]. *)

val mark : int -> mark
(** [mark n]: an empty mark over the indices [0, n).  Size it with
    {!item_count} to evaluate a metric through it. *)

val mark_size : mark -> int
val clear : mark -> unit
val add : mark -> int -> unit
val remove : mark -> int -> unit
val mem : mark -> int -> bool

val mark_set : t -> mark -> Item_set.t -> unit
(** [mark_set t m on_chip] makes [m] hold exactly the indices of
    [on_chip]'s items; items outside the metric are left out (no node
    queries them). *)

val node_latency_on : t -> mark -> int -> float
(** The Eq. 1 kernel: node [id]'s latency with the items [m] holds on
    chip.  Every latency and gain of this module is a fold over it.
    Raises [Invalid_argument] when [mark_size m < item_count t]. *)

(** {3 Two evaluations in one pass}

    DNNK's table compensation evaluates a node twice per DP cell: with
    the earlier rows' placement bits of that column, and with those plus
    the current row's members.  Each item {!map_queried_ix} visits for
    the node gets one code saying how it is decided in both:

    - [code_off]: off in both evaluations;
    - [code_member]: off in the first, on in the second;
    - [code_row r ~member]: on in the first exactly when
      [bits.(r).(col)]; on in the second when that holds or [member]
      does (an item can be both an earlier row's and a member). *)

val code_off : int
val code_member : int
val code_row : int -> member:bool -> int
(** [r >= 0]. *)

val node_latency_pair_ix :
  t -> int -> codes:int array -> bits:bool array array -> col:int ->
  float array -> unit
(** [node_latency_pair_ix t id ~codes ~bits ~col out] writes node [id]'s
    first-evaluation latency to [out.(0)] and its second to [out.(1)].
    Each is bit for bit {!node_latency_on} under the mark the codes
    describe: the same float operations in the same order. *)

val umm_latency : t -> int -> float
(** {!node_latency_on} with nothing on chip, cached per node. *)

val map_queried_ix : t -> int -> (int -> int) -> int array
(** [map_queried_ix t id f] is [f] of exactly the item indices
    {!node_latency_on} queries for node [id], in query order (weight,
    input features, output), with [f] applied in that order.  DNNK's
    compensation tables derive their codes and memo-key bit layout from
    this enumeration; it is a pure function of the metric. *)

val total_latency_on : t -> mark -> float
(** Whole-network latency (sequential node execution) under [m]. *)

val static_gain_on : t -> mark -> int array -> float
(** [static_gain_on t m nodes] sums, over [nodes] in order, each node's
    cached UMM latency minus its latency under [m].  With [nodes] the
    sorted affected nodes of the items [m] holds, this is bit for bit
    [marginal_gain_many ~on_chip:Item_set.empty] of those items. *)

val swing_gain_on : t -> mark -> int list -> int array -> float
(** [swing_gain_on t m members nodes] sums, over [nodes] in order, each
    node's latency with the [members] indices off minus its latency with
    them on, every other index as [m] holds it.  [m] is left as it was.
    For members [m] does not hold, this is the gain of adding them; for
    members it holds, the gain they bring to the rest. *)

val nodes_affected : t -> item list -> int array
(** The nodes any of the items affects, sorted, without duplicates: the
    node list {!marginal_gain_many} sums over. *)

(** {2 Item-set evaluation}

    Each call converts its set to a mark once and folds the kernel. *)

val total_latency : t -> on_chip:Item_set.t -> float
(** Whole-network latency (sequential node execution). *)

val marginal_gain_many : t -> on_chip:Item_set.t -> item list -> float
(** Latency saved by adding all the items together. *)

val eligible_items :
  t -> memory_bound_only:bool -> item list
(** Pinnable items: feature values not produced by the graph input and
    with at least one consumer; weight tensors of weight-carrying nodes.
    With [memory_bound_only] (the paper's setting), an item qualifies
    only if at least one affected node is memory bound. *)

val pp_item : Format.formatter -> item -> unit
