(** Functional reference interpreter.

    Executes a computation graph numerically (float32 semantics on small
    tensors).  Two uses: it pins down the operator semantics the shape
    inference promises, and {!run_tiled} re-executes every convolution in
    the tile-loop order of the accelerator's dataflow — outer loops over
    output-channel groups, spatial tiles and input-channel groups with
    partial-sum accumulation — so the tiling model's central assumption
    (tile-by-tile execution computes the same function) is checkable
    rather than believed.

    Layout: feature maps are dense [channels x height x width] arrays,
    index [(c * height + y) * width + x]; filters are [OIHW]. *)

type value = {
  shape : Tensor.Shape.t;
  data : float array;   (** Length = [Shape.elements shape]. *)
}

val value_of_shape : Tensor.Shape.t -> f:(int -> float) -> value
(** Build a value by indexing [f] over the flat element range. *)

val synthetic_input : Dnn_graph.Graph.t -> seed:int -> value
(** Deterministic input image for the graph's [Input] node. *)

val run :
  ?weights:(int -> value option) -> Dnn_graph.Graph.t -> input:value ->
  value array
(** Execute the graph; result [i] is node [i]'s output value.  [weights]
    defaults to deterministic pseudo-random weights (seed 0) for every
    node that has any.  Raises
    [Invalid_argument] on shape mismatches (which indicate a bug: shapes
    were already inferred). *)

val run_tiled :
  ?weights:(int -> value option) -> tile:Accel.Tiling.t ->
  Dnn_graph.Graph.t -> input:value -> value array
(** Like {!run}, but every convolution executes in the accelerator's
    tiled loop order with partial-sum accumulation per input-channel
    group. *)

val max_abs_diff : value -> value -> float
(** Largest element-wise difference; raises [Invalid_argument] on shape
    mismatch. *)
