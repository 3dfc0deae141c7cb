module G = Dnn_graph.Graph
module Op = Dnn_graph.Op
module Values = Dnn_graph.Values
module Shape = Tensor.Shape

type profile = {
  node_id : int;
  latc : float;
  if_values : int array;
  if_secs : float array;
  if_bytes : int array;
  wt_term : float;
  wt_load_once : float;
  of_term : float;
  of_value : int option;
  wt_stream_bytes : int;
  wt_once_bytes : int;
  of_stream_bytes : int;
}

(* The inputs of Eq. 1 that no design parameter changes, compiled once per
   graph, dtype and fusion setting.  A design point then only supplies the
   PE array and clock (compute terms) or the tile, bandwidth and burst
   overhead (streaming terms); no term depends on both. *)

(* A node's compute work: MAC-array passes or auxiliary element ops. *)
type compute =
  | Free
  | Macs of { groups : int; m : int; c : int; hw : int; k2 : int }
  | Aux of int

(* The dimensions the outer tile loops of a node iterate over. *)
type tile_dims =
  | Conv_dims of {
      out_channels : int;
      out_h : int;
      out_w : int;
      kernel : int * int;
      in_channels : int option;  (* when the single input is a feature map *)
    }
  | Conv_flat  (* a conv whose output is not a feature map *)
  | Dense_dims of int  (* output features *)
  | Flat

type node_inputs = {
  compute : compute;
  dims : tile_dims;
  transfers : bool;  (* false for Input and Concat: they move nothing *)
  of_value : int option;
  sources : int array;  (* streamed source values, after fusion *)
  value_bytes : int array;  (* every node's output bytes, shared per graph *)
  wt_bytes : int;
  of_bytes : int;  (* 0 when the write-back is fused away *)
}

type table = {
  dtype : Tensor.Dtype.t;
  fused_eltwise : bool;
  inputs : node_inputs array;
}

(* Compute work and tile-loop dimensions of one node. *)
let node_work g id op =
  match op with
  | Op.Input _ | Op.Concat -> (Free, Flat)
  | Op.Conv { groups; kernel = (kh, kw) as kernel; out_channels; _ } ->
    let feature_in =
      match G.input_shapes g id with
      | [ shape ] -> Shape.as_feature shape
      | [] | _ :: _ :: _ -> None
    in
    let in_channels =
      match feature_in with Some f -> f.Shape.channels | None -> 0
    in
    let hw, dims =
      match Shape.as_feature (G.output_shape g id) with
      | Some out ->
        ( out.Shape.height * out.Shape.width,
          Conv_dims
            { out_channels = out.Shape.channels; out_h = out.Shape.height;
              out_w = out.Shape.width; kernel;
              in_channels = Option.map (fun f -> f.Shape.channels) feature_in } )
      | None -> (1, Conv_flat)
    in
    ( Macs
        { groups; m = out_channels / groups; c = in_channels / groups; hw;
          k2 = kh * kw },
      dims )
  | Op.Dense { out_features } ->
    let in_features =
      match G.input_shapes g id with
      | [ shape ] -> Shape.elements shape
      | [] | _ :: _ :: _ -> 0
    in
    ( Macs { groups = 1; m = out_features; c = in_features; hw = 1; k2 = 1 },
      Dense_dims out_features )
  | Op.Pool _ | Op.Eltwise_add | Op.Upsample _ -> (Aux (G.aux_ops g id), Flat)

(* With eltwise fusion, a value whose only consumer is the very next node
   and that node is an element-wise add is consumed from the producing
   layer's drain: its write-back and its re-read both disappear. *)
let fused_into_next ~fused_eltwise g v =
  fused_eltwise
  && v + 1 < G.node_count g
  && (match (G.node g (v + 1)).G.op with
     | Op.Eltwise_add -> true
     | Op.Input _ | Op.Conv _ | Op.Pool _ | Op.Concat | Op.Upsample _
     | Op.Dense _ -> false)
  && (match Values.consumers g v with [ c ] -> c = v + 1 | _ -> false)

(* [sources] is [Values.source_table g], [bytes] every node's output
   bytes: per-graph lookups, so a node's inputs cost O(sources). *)
let node_inputs dtype ~fused_eltwise g ~sources ~bytes id =
  let op = (G.node g id).G.op in
  let compute, dims = node_work g id op in
  match op with
  | Op.Input _ | Op.Concat ->
    { compute; dims; transfers = false;
      of_value = (match op with Op.Input _ -> Some id | _ -> None);
      sources = [||]; value_bytes = bytes; wt_bytes = 0; of_bytes = 0 }
  | Op.Conv _ | Op.Dense _ | Op.Pool _ | Op.Eltwise_add | Op.Upsample _ ->
    let sources =
      if fused_eltwise then
        Array.of_list
          (List.filter
             (fun v -> not (fused_into_next ~fused_eltwise g v))
             (Array.to_list sources.(id)))
      else sources.(id)
    in
    { compute; dims; transfers = true; of_value = Some id; sources;
      value_bytes = bytes;
      wt_bytes =
        (match G.weight_shape g id with
        | None -> 0
        | Some shape -> Shape.size_bytes dtype shape);
      of_bytes =
        (if fused_into_next ~fused_eltwise g id then 0 else bytes.(id)) }

(* Every node's inputs, handed to [f] with its id. *)
let map_inputs dtype ~fused_eltwise g f =
  let sources = Values.source_table g in
  let bytes =
    Array.init (G.node_count g) (fun v ->
        Shape.size_bytes dtype (G.output_shape g v))
  in
  Array.init (G.node_count g) (fun id ->
      f (node_inputs dtype ~fused_eltwise g ~sources ~bytes id) id)

let table dtype ~fused_eltwise g =
  { dtype; fused_eltwise;
    inputs = map_inputs dtype ~fused_eltwise g (fun n _ -> n) }

let check_table cfg t =
  if cfg.Config.dtype <> t.dtype || cfg.Config.fused_eltwise <> t.fused_eltwise
  then invalid_arg "Latency: table compiled for another dtype or fusion setting"

(* --- Eq. 1 terms.  Each one is computed here and nowhere else. --- *)

(* Monomorphic [Stdlib.max]: the same selection, without the polymorphic
   comparison. *)
let fmax (a : float) b = if a >= b then a else b

(* Double buffering overlaps compute with the three streaming interfaces. *)
let streaming ~if_time ~wt_time ~of_time = fmax if_time (fmax wt_time of_time)

let overlap latc stream = fmax latc stream

(* Compute seconds for one node on this design. *)
let latc cfg n =
  let cycles =
    match n.compute with
    | Free -> 0
    | Macs { groups; m; c; hw; k2 } ->
      groups * Pe_array.conv_cycles cfg.Config.pe ~m ~c ~hw ~k2
    | Aux ops ->
      (ops + cfg.Config.aux_ops_per_cycle - 1) / cfg.Config.aux_ops_per_cycle
  in
  float_of_int cycles /. (cfg.Config.freq_mhz *. 1e6)

let trips tile = function
  | Conv_dims { out_channels; out_h; out_w; kernel; _ } ->
    Tiling.trips tile ~out_channels ~out_h ~out_w ~kernel
  | Dense_dims out_features ->
    (* Output-channel groups of the dense layer; weights stream once. *)
    let nm = (out_features + tile.Tiling.tm - 1) / tile.Tiling.tm in
    { Tiling.if_trips = nm; wt_trips = 1; halo = 1.0 }
  | Conv_flat | Flat -> { Tiling.if_trips = 1; wt_trips = 1; halo = 1.0 }

(* DDR transaction counts per interface for the node's outer tile loops. *)
let transactions tile = function
  | Conv_dims { out_channels; out_h; out_w; in_channels = Some in_channels; _ } ->
    Tiling.transactions tile ~out_channels ~in_channels ~out_h ~out_w
  | Conv_dims { in_channels = None; _ } | Conv_flat ->
    { Tiling.if_txn = 1; wt_txn = 1; of_txn = 1 }
  | Dense_dims out_features ->
    let nm = (out_features + tile.Tiling.tm - 1) / tile.Tiling.tm in
    { Tiling.if_txn = nm; wt_txn = nm; of_txn = 1 }
  | Flat -> { Tiling.if_txn = 1; wt_txn = 0; of_txn = 1 }

(* Tile-load overhead of the input interface, split across the node's
   source values (convs read one value; element-wise nodes read each of
   theirs in one streaming pass). *)
let if_ovh_each ~ovh txn n =
  match Array.length n.sources with
  | 0 -> 0.
  | count -> float_of_int txn.Tiling.if_txn *. ovh /. float_of_int count

let if_stream_bytes trips bytes =
  int_of_float (float_of_int (bytes * trips.Tiling.if_trips) *. trips.Tiling.halo)

let if_term ~bw ~ovh_each streamed_bytes =
  (float_of_int streamed_bytes /. bw) +. ovh_each

let wt_term ~bw ~ovh trips txn n =
  if n.wt_bytes = 0 then 0.
  else
    float_of_int (n.wt_bytes * trips.Tiling.wt_trips) /. bw
    +. (float_of_int txn.Tiling.wt_txn *. ovh)

let wt_load_once ~bw ~ovh n =
  if n.wt_bytes = 0 then 0. else (float_of_int n.wt_bytes /. bw) +. ovh

let of_term ~bw ~ovh txn n =
  if n.of_bytes = 0 then 0.
  else (float_of_int n.of_bytes /. bw) +. (float_of_int txn.Tiling.of_txn *. ovh)

(* --- The table's two consumers: per-node profiles and design sweeps. --- *)

let profile_of cfg ~bw n id =
  let latc = latc cfg n in
  if not n.transfers then
    { node_id = id; latc; if_values = [||]; if_secs = [||]; if_bytes = [||];
      wt_term = 0.; wt_load_once = 0.; of_term = 0.; of_value = n.of_value;
      wt_stream_bytes = 0; wt_once_bytes = 0; of_stream_bytes = 0 }
  else
    let tile = cfg.Config.tile and ovh = cfg.Config.burst_overhead in
    let trips = trips tile n.dims and txn = transactions tile n.dims in
    let ovh_each = if_ovh_each ~ovh txn n in
    let k = Array.length n.sources in
    let if_bytes = Array.make k 0 and if_secs = Array.create_float k in
    for j = 0 to k - 1 do
      let bytes = if_stream_bytes trips n.value_bytes.(n.sources.(j)) in
      if_bytes.(j) <- bytes;
      if_secs.(j) <- if_term ~bw ~ovh_each bytes
    done;
    { node_id = id; latc;
      if_values = n.sources;
      if_secs;
      if_bytes;
      wt_term = wt_term ~bw ~ovh trips txn n;
      wt_load_once = wt_load_once ~bw ~ovh n;
      of_term = of_term ~bw ~ovh txn n;
      of_value = n.of_value;
      wt_stream_bytes = n.wt_bytes * trips.Tiling.wt_trips;
      wt_once_bytes = n.wt_bytes;
      of_stream_bytes = n.of_bytes }

(* Each node's inputs are compiled as [table] compiles them, then dropped:
   one profile pass needs no table to outlive it, so the profile keeps
   the node's source array as its [if_values]. *)
let profile_graph cfg g =
  let bw = Config.interface_bandwidth cfg in
  map_inputs cfg.Config.dtype ~fused_eltwise:cfg.Config.fused_eltwise g
    (profile_of cfg ~bw)

let compute_times cfg t =
  check_table cfg t;
  Array.map (latc cfg) t.inputs

(* UMM streaming time of one node: every source, the weights and the
   write-back go to DDR.  The source terms fold in source order from 0.,
   as [umm_node_latency] folds them. *)
let umm_streaming_time ~bw ~ovh tile n =
  if not n.transfers then 0.
  else
    let trips = trips tile n.dims and txn = transactions tile n.dims in
    let ovh_each = if_ovh_each ~ovh txn n in
    let if_time = ref 0. in
    for j = 0 to Array.length n.sources - 1 do
      let bytes = n.value_bytes.(n.sources.(j)) in
      if_time := !if_time +. if_term ~bw ~ovh_each (if_stream_bytes trips bytes)
    done;
    streaming ~if_time:!if_time ~wt_time:(wt_term ~bw ~ovh trips txn n)
      ~of_time:(of_term ~bw ~ovh txn n)

let streaming_times cfg t =
  check_table cfg t;
  let bw = Config.interface_bandwidth cfg and ovh = cfg.Config.burst_overhead in
  Array.map (umm_streaming_time ~bw ~ovh cfg.Config.tile) t.inputs

let umm_total_of_times ~compute ~streaming:stream =
  let acc = ref 0. in
  for i = 0 to Array.length compute - 1 do
    acc := !acc +. overlap compute.(i) stream.(i)
  done;
  !acc

let umm_node_latency p =
  let if_time = ref 0. in
  for j = 0 to Array.length p.if_secs - 1 do
    if_time := !if_time +. p.if_secs.(j)
  done;
  overlap p.latc
    (streaming ~if_time:!if_time ~wt_time:p.wt_term ~of_time:p.of_term)

let umm_total profiles =
  Array.fold_left (fun acc p -> acc +. umm_node_latency p) 0. profiles

let has_traffic p =
  Array.length p.if_values > 0 || p.wt_term > 0. || p.of_term > 0.

let is_memory_bound p = has_traffic p && umm_node_latency p > p.latc

let memory_bound_count profiles =
  Array.fold_left
    (fun (mb, total) p ->
      if has_traffic p then ((if is_memory_bound p then mb + 1 else mb), total + 1)
      else (mb, total))
    (0, 0) profiles
