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

let table dtype ~fused_eltwise g =
  let sources = Values.source_table g in
  let bytes =
    Array.init (G.node_count g) (fun v ->
        Shape.size_bytes dtype (G.output_shape g v))
  in
  { dtype; fused_eltwise;
    inputs =
      Array.init (G.node_count g)
        (node_inputs dtype ~fused_eltwise g ~sources ~bytes) }

let check_table cfg t =
  if cfg.Config.dtype <> t.dtype || cfg.Config.fused_eltwise <> t.fused_eltwise
  then invalid_arg "Latency: table compiled for another dtype or fusion setting"

(* --- Eq. 1 terms.  Each one is computed here and nowhere else. --- *)

(* Monomorphic [Stdlib.max]: the same selection, without the polymorphic
   comparison. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* Double buffering overlaps compute with the three streaming interfaces. *)
let[@inline] streaming ~if_time ~wt_time ~of_time =
  fmax if_time (fmax wt_time of_time)

let[@inline] overlap latc stream = fmax latc stream

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

let[@inline] ceil_div a b = (a + b - 1) / b

let trips tile = function
  | Conv_dims { out_channels; out_h; out_w; kernel; _ } ->
    Tiling.trips tile ~out_channels ~out_h ~out_w ~kernel
  | Dense_dims out_features ->
    (* Output-channel groups of the dense layer; weights stream once. *)
    { Tiling.if_trips = ceil_div out_features tile.Tiling.tm; wt_trips = 1;
      halo = 1.0 }
  | Conv_flat | Flat -> { Tiling.if_trips = 1; wt_trips = 1; halo = 1.0 }

(* DDR transaction counts per interface for the node's outer tile loops. *)
let transactions tile = function
  | Conv_dims { out_channels; out_h; out_w; in_channels = Some in_channels; _ } ->
    Tiling.transactions tile ~out_channels ~in_channels ~out_h ~out_w
  | Conv_dims { in_channels = None; _ } | Conv_flat ->
    { Tiling.if_txn = 1; wt_txn = 1; of_txn = 1 }
  | Dense_dims out_features ->
    let nm = ceil_div out_features tile.Tiling.tm in
    { Tiling.if_txn = nm; wt_txn = nm; of_txn = 1 }
  | Flat -> { Tiling.if_txn = 1; wt_txn = 0; of_txn = 1 }

(* A transfer term is a quotient, its bytes over the interface bandwidth,
   plus the overhead of its DDR transactions.  The helpers take plain
   numbers and are inlined, so the sweep kernel below calls them without
   allocating, and can compute a quotient once for every tile that shares
   it. *)

let[@inline] quotient ~bw bytes = float_of_int bytes /. bw

(* The weight or output term of an interface moving [bytes] (before tile
   reloads) in [txn] transactions; 0. when it moves nothing. *)
let[@inline] term ~ovh ~txn ~bytes quotient =
  if bytes = 0 then 0. else quotient +. (float_of_int txn *. ovh)

(* Tile-load overhead of the input interface, split across the node's
   [count] source values (convs read one value; element-wise nodes read
   each of theirs in one streaming pass). *)
let[@inline] if_ovh_each ~ovh ~if_txn count =
  if count = 0 then 0. else float_of_int if_txn *. ovh /. float_of_int count

let[@inline] if_stream_bytes ~if_trips ~halo bytes =
  int_of_float (float_of_int (bytes * if_trips) *. halo)

let[@inline] if_term ~ovh_each quotient = quotient +. ovh_each

let wt_load_once ~bw ~ovh n =
  if n.wt_bytes = 0 then 0. else quotient ~bw n.wt_bytes +. ovh

(* --- The table's two consumers: per-node profiles and design sweeps. --- *)

let profile_of cfg ~bw n id =
  let latc = latc cfg n in
  if not n.transfers then
    { node_id = id; latc; if_values = [||]; if_secs = [||]; if_bytes = [||];
      wt_term = 0.; wt_load_once = 0.; of_term = 0.; of_value = n.of_value;
      wt_stream_bytes = 0; wt_once_bytes = 0; of_stream_bytes = 0 }
  else
    let tile = cfg.Config.tile and ovh = cfg.Config.burst_overhead in
    let { Tiling.if_trips; wt_trips; halo } = trips tile n.dims in
    let { Tiling.if_txn; wt_txn; of_txn } = transactions tile n.dims in
    let k = Array.length n.sources in
    let ovh_each = if_ovh_each ~ovh ~if_txn k in
    let if_bytes = Array.make k 0 and if_secs = Array.create_float k in
    for j = 0 to k - 1 do
      let bytes = if_stream_bytes ~if_trips ~halo n.value_bytes.(n.sources.(j)) in
      if_bytes.(j) <- bytes;
      if_secs.(j) <- if_term ~ovh_each (quotient ~bw bytes)
    done;
    { node_id = id; latc;
      if_values = n.sources;
      if_secs;
      if_bytes;
      wt_term =
        term ~ovh ~txn:wt_txn ~bytes:n.wt_bytes
          (quotient ~bw (n.wt_bytes * wt_trips));
      wt_load_once = wt_load_once ~bw ~ovh n;
      of_term = term ~ovh ~txn:of_txn ~bytes:n.of_bytes (quotient ~bw n.of_bytes);
      of_value = n.of_value;
      wt_stream_bytes = n.wt_bytes * wt_trips;
      wt_once_bytes = n.wt_bytes;
      of_stream_bytes = n.of_bytes }

(* A profile keeps its node's source array as its [if_values]: the
   table and the profiles share it, and neither ever writes it. *)
let profiles cfg t =
  check_table cfg t;
  let bw = Config.interface_bandwidth cfg in
  Array.mapi (fun id n -> profile_of cfg ~bw n id) t.inputs

let profile_graph ({ Config.dtype; fused_eltwise; _ } as cfg) g =
  profiles cfg (table dtype ~fused_eltwise g)

let compute_times cfg t =
  check_table cfg t;
  Array.map (latc cfg) t.inputs

(* Distinct values of one tile dimension over [tiles], ascending, and each
   tile's index among them. *)
let dim_index dim tiles =
  let values =
    Array.of_list
      (List.sort_uniq Int.compare (List.map dim (Array.to_list tiles)))
  in
  let rec find v i = if values.(i) = v then i else find v (i + 1) in
  (values, Array.map (fun tile -> find (dim tile) 0) tiles)

(* Each count: [extent] divided, rounding up, by the matching tile size. *)
let divide_into counts extent sizes =
  for a = 0 to Array.length sizes - 1 do
    counts.(a) <- ceil_div extent sizes.(a)
  done

(* UMM streaming seconds of every node on each tile: every source, the
   weights and the write-back go to DDR.  This is the DSE's inner loop.

   - A node's trip counts are divided once per distinct tile dimension
     (the grid has 3 tm, 3 tn and 4 spatial values for its 36 tiles), and
     a tile's loop counts combine them as [trips] and [transactions]
     would, with their arithmetic.
   - The quotients depend on the tile only through tm, th and tw: the
     input trips and the halo for the sources, the spatial tiles for the
     weights, none for the output.  So they are computed once per node and
     (tm, th, tw) group, and a group whose input trips and halo equal an
     earlier one's reads that group's source quotients.  The tiles that
     differ in tn only add their overheads and fold.
   - Nothing is allocated per node or tile: the counts live in scratch
     arrays and locals, and the terms are the inlined helpers above.

   Each source term is [quotient +. ovh_each] folded in source order from
   0., as [profile_of] and [umm_node_latency] compute and fold it. *)
let streaming_times cfg t tiles =
  check_table cfg t;
  let bw = Config.interface_bandwidth cfg and ovh = cfg.Config.burst_overhead in
  let tms, tm_of = dim_index (fun x -> x.Tiling.tm) tiles in
  let tns, tn_of = dim_index (fun x -> x.Tiling.tn) tiles in
  let ths, th_of = dim_index (fun x -> x.Tiling.th) tiles in
  let tws, tw_of = dim_index (fun x -> x.Tiling.tw) tiles in
  let counts sizes = Array.make (Array.length sizes) 1 in
  let nm = counts tms and nc = counts tns and nh = counts ths and nw = counts tws in
  let group_of =
    Array.init (Array.length tiles) (fun i ->
        (((tm_of.(i) * Array.length ths) + th_of.(i)) * Array.length tws)
        + tw_of.(i))
  in
  let groups = Array.length tms * Array.length ths * Array.length tws in
  let inputs = t.inputs in
  let max_sources =
    Array.fold_left (fun m n -> max m (Array.length n.sources)) 0 inputs
  in
  (* Group [g] holds node [filled.(g)]'s input trips, halo and weight
     quotient, and its source quotients start at [first.(g)]; [order]
     lists the node's groups in the order they were filled. *)
  let filled = Array.make groups (-1) and order = Array.make groups 0 in
  let g_trips = Array.make groups 0 and first = Array.make groups 0 in
  let g_halo = Array.create_float groups and g_wt = Array.create_float groups in
  let quotients = Array.create_float (groups * max_sources) in
  let times = Array.map (fun _ -> Array.make (Array.length inputs) 0.) tiles in
  for id = 0 to Array.length inputs - 1 do
    let n = inputs.(id) in
    if n.transfers then begin
      (match n.dims with
       | Conv_dims { out_channels; out_h; out_w; in_channels; _ } ->
         divide_into nm out_channels tms;
         divide_into nh out_h ths;
         divide_into nw out_w tws;
         (match in_channels with
          | Some c -> divide_into nc c tns
          | None -> ())
       | Dense_dims out_features -> divide_into nm out_features tms
       | Conv_flat | Flat -> ());
      let sources = n.sources in
      let k = Array.length sources in
      let of_quotient = quotient ~bw n.of_bytes in
      let fills = ref 0 in
      for i = 0 to Array.length tiles - 1 do
        (* Input trips, weight trips and the three transaction counts. *)
        let if_trips = ref 1 and wt_trips = ref 1 in
        let if_txn = ref 1 and wt_txn = ref 1 and of_txn = ref 1 in
        (match n.dims with
         | Conv_dims { in_channels; _ } ->
           let m = nm.(tm_of.(i)) and nsp = nh.(th_of.(i)) * nw.(tw_of.(i)) in
           if_trips := m;
           wt_trips := nsp;
           (match in_channels with
            | Some _ ->
              let loads = m * nsp * nc.(tn_of.(i)) in
              if_txn := loads;
              wt_txn := loads;
              of_txn := m * nsp
            | None -> ())
         | Dense_dims _ ->
           let m = nm.(tm_of.(i)) in
           if_trips := m;
           if_txn := m;
           wt_txn := m
         | Conv_flat -> ()
         | Flat -> wt_txn := 0);
        let g = group_of.(i) in
        if filled.(g) <> id then begin
          filled.(g) <- id;
          let halo =
            match n.dims with
            | Conv_dims { out_h; out_w; kernel = (kh, kw); _ }
              when !wt_trips <> 1 ->
              let th = ths.(th_of.(i)) and tw = tws.(tw_of.(i)) in
              let eff_h = if th <= out_h then th else out_h
              and eff_w = if tw <= out_w then tw else out_w in
              float_of_int ((eff_h + kh - 1) * (eff_w + kw - 1))
              /. float_of_int (eff_h * eff_w)
            | Conv_dims _ | Dense_dims _ | Conv_flat | Flat -> 1.0
          in
          g_trips.(g) <- !if_trips;
          g_halo.(g) <- halo;
          g_wt.(g) <- quotient ~bw (n.wt_bytes * !wt_trips);
          first.(g) <- g * max_sources;
          let fresh = ref true in
          for f = 0 to !fills - 1 do
            let h = order.(f) in
            if !fresh && g_trips.(h) = !if_trips && g_halo.(h) = halo then begin
              first.(g) <- first.(h);
              fresh := false
            end
          done;
          if !fresh then begin
            let base = first.(g) in
            for j = 0 to k - 1 do
              let bytes = n.value_bytes.(sources.(j)) in
              quotients.(base + j) <-
                quotient ~bw (if_stream_bytes ~if_trips:!if_trips ~halo bytes)
            done
          end;
          order.(!fills) <- g;
          incr fills
        end;
        let base = first.(g) in
        let ovh_each = if_ovh_each ~ovh ~if_txn:!if_txn k in
        let if_time = ref 0. in
        for j = 0 to k - 1 do
          if_time := !if_time +. if_term ~ovh_each quotients.(base + j)
        done;
        times.(i).(id) <-
          streaming ~if_time:!if_time
            ~wt_time:(term ~ovh ~txn:!wt_txn ~bytes:n.wt_bytes g_wt.(g))
            ~of_time:(term ~ovh ~txn:!of_txn ~bytes:n.of_bytes of_quotient)
      done
    end
  done;
  times

(* One pass over the nodes for both designs: a node's streaming time is
   read once, and each design's term is added to its own sum in node
   order, as [umm_total] adds it.  A sum that passes its bound only grows,
   since every term is [>= 0], so it may keep growing while the other
   design's sum is still under its own bound.  The one- and two-design
   loops are written out so that their sums stay in registers. *)
let umm_totals_until ~bounds ~compute ~streaming:stream totals =
  let n = Array.length stream and i = ref 0 in
  match compute with
  | [| c |] ->
    let bound = bounds.(0) and acc = ref 0. in
    while !i < n && not (!acc > bound) do
      acc := !acc +. overlap c.(!i) stream.(!i);
      incr i
    done;
    totals.(0) <- !acc
  | [| c0; c1 |] ->
    let b0 = bounds.(0) and b1 = bounds.(1) in
    let a0 = ref 0. and a1 = ref 0. in
    while !i < n && not (!a0 > b0 && !a1 > b1) do
      let s = stream.(!i) in
      a0 := !a0 +. overlap c0.(!i) s;
      a1 := !a1 +. overlap c1.(!i) s;
      incr i
    done;
    totals.(0) <- !a0;
    totals.(1) <- !a1
  | _ -> invalid_arg "Latency.umm_totals_until: one or two designs"

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
