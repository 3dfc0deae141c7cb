module G = Dnn_graph.Graph
module Values = Dnn_graph.Values
module Latency = Accel.Latency
module Shape = Tensor.Shape

type item =
  | Feature_value of int
  | Weight_of of int
  | Weight_slice of { node : int; index : int; of_k : int }

(* [Stdlib.compare]'s order on items, without its polymorphic walk:
   constructors in declaration order, then their fields left to right.
   Only the sign of a comparison steers [Set], so every set (and every
   fold over one) keeps the order the polymorphic compare gave it. *)
let compare_item a b =
  match (a, b) with
  | Feature_value x, Feature_value y | Weight_of x, Weight_of y ->
    Int.compare x y
  | Feature_value _, (Weight_of _ | Weight_slice _) | Weight_of _, Weight_slice _
    ->
    -1
  | (Weight_of _ | Weight_slice _), Feature_value _ | Weight_slice _, Weight_of _
    ->
    1
  | Weight_slice a, Weight_slice b ->
    let c = Int.compare a.node b.node in
    if c <> 0 then c
    else
      let c = Int.compare a.index b.index in
      if c <> 0 then c else Int.compare a.of_k b.of_k

module Item_set = Set.Make (struct
  type t = item

  let compare = compare_item
end)

type t = {
  graph : G.t;
  profiles : Latency.profile array;
  slices : int array;
  node_count : int;
  item_count : int;
  slice_base : int array;
  slice_node : int array;
  consumers : int list array;
  last_use : int array;
  affected : int list array;
  umm : float array;
}

(* Dense item index: feature value [v] is [v], the weight of node [n]
   is [node_count + n], and the slices of every sliced node follow from
   [2 * node_count] on, in node order.  [-1] for an item the metric does
   not know (a node out of range, or a slice that does not match the
   node's slicing). *)
let index_opt t = function
  | Feature_value v -> if v >= 0 && v < t.node_count then v else -1
  | Weight_of n -> if n >= 0 && n < t.node_count then t.node_count + n else -1
  | Weight_slice { node; index; of_k } ->
    if
      node >= 0 && node < t.node_count && t.slices.(node) > 1
      && of_k = t.slices.(node) && index >= 0 && index < of_k
    then t.slice_base.(node) + index
    else -1

let item_count t = t.item_count

let item_index t item =
  let i = index_opt t item in
  if i < 0 then invalid_arg "Metric.item_index: item outside the metric";
  i

let item_of_index t i =
  let n = t.node_count in
  if i < n then Feature_value i
  else if i < 2 * n then Weight_of (i - n)
  else
    let node = t.slice_node.(i - (2 * n)) in
    Weight_slice
      { node; index = i - t.slice_base.(node); of_k = t.slices.(node) }

(* A set of dense item indices: index [i] is in it exactly when
   [slots.(i) = stamp].  Stamps start at 1 and only grow, so a slot
   holding 0 is out under every stamp and [clear] is one increment. *)
type mark = { slots : int array; mutable stamp : int }

let mark n = { slots = Array.make n 0; stamp = 1 }
let mark_size m = Array.length m.slots
let clear m = m.stamp <- m.stamp + 1
let add m i = m.slots.(i) <- m.stamp
let remove m i = m.slots.(i) <- 0
let[@inline] mem m i = m.slots.(i) = m.stamp

let mark_set t m on_chip =
  clear m;
  Item_set.iter
    (fun it ->
      let i = index_opt t it in
      if i >= 0 then add m i)
    on_chip

let fmax (a : float) b = if a >= b then a else b

(* The Eq. 1 kernel, with fractional weight residency: the streamed
   share of a sliced weight tensor scales its transfer term.  [fmax] is
   [Stdlib.max] specialised to floats (same comparison, same result).
   The input-term loop reads the profile's arrays unchecked: [j] stays
   below the length of [ids], which [build] checked equals that of
   [secs].  The mark's slots are read checked, so a term id changed
   after [build] cannot read outside them. *)
let node_latency_on t m id =
  let slots = m.slots and stamp = m.stamp in
  if Array.length slots < t.item_count then
    invalid_arg "Metric.node_latency_on: mark smaller than the metric";
  let p = t.profiles.(id) in
  let k = t.slices.(id) in
  let wt_time =
    if p.Latency.wt_term <= 0. then 0.
    else if k = 1 then
      if slots.(t.node_count + id) = stamp then 0. else p.Latency.wt_term
    else begin
      let base = t.slice_base.(id) in
      let off = ref 0 in
      for index = 0 to k - 1 do
        if slots.(base + index) <> stamp then incr off
      done;
      p.Latency.wt_term *. float_of_int !off /. float_of_int k
    end
  in
  let ids = p.Latency.if_values and secs = p.Latency.if_secs in
  let if_time = ref 0. in
  for j = 0 to Array.length ids - 1 do
    if slots.(Array.unsafe_get ids j) <> stamp then
      if_time := !if_time +. Array.unsafe_get secs j
  done;
  let of_time = if slots.(id) = stamp then 0. else p.Latency.of_term in
  fmax p.Latency.latc (fmax !if_time (fmax wt_time of_time))

let code_off = -1
let code_member = -2
let code_row r ~member = (r lsl 1) lor Bool.to_int member

(* A code's state in both evaluations, packed: bit 0 set when the item
   is on in the first, bit 1 when on in the second.  One placement-bit
   read per code. *)
let[@inline] code_state bits col c =
  if c >= 0 then
    if bits.(c lsr 1).(col) then 3 else (c land 1) lsl 1
  else if c = code_member then 2
  else 0

(* [node_latency_on] under two on-chip states at once, each decided by
   one code per queried item (in [map_queried_ix] order).  Each
   evaluation performs the float operations of [node_latency_on] in the
   same order, so both results are bit for bit the single-state ones. *)
let node_latency_pair_ix t id ~codes ~bits ~col out =
  let p = t.profiles.(id) in
  let k = t.slices.(id) in
  let pos = ref 0 in
  let wt1 = ref 0. and wt2 = ref 0. in
  if p.Latency.wt_term > 0. then begin
    if k = 1 then begin
      let st = code_state bits col codes.(0) in
      if st land 1 = 0 then wt1 := p.Latency.wt_term;
      if st land 2 = 0 then wt2 := p.Latency.wt_term
    end
    else begin
      let off1 = ref 0 and off2 = ref 0 in
      for index = 0 to k - 1 do
        let st = code_state bits col codes.(index) in
        if st land 1 = 0 then incr off1;
        if st land 2 = 0 then incr off2
      done;
      wt1 := p.Latency.wt_term *. float_of_int !off1 /. float_of_int k;
      wt2 := p.Latency.wt_term *. float_of_int !off2 /. float_of_int k
    end;
    pos := k
  end;
  let secs = p.Latency.if_secs in
  let base = !pos in
  let if1 = ref 0. and if2 = ref 0. in
  for j = 0 to Array.length secs - 1 do
    let st = code_state bits col codes.(base + j) in
    if st land 1 = 0 then if1 := !if1 +. secs.(j);
    if st land 2 = 0 then if2 := !if2 +. secs.(j)
  done;
  let st = code_state bits col codes.(base + Array.length secs) in
  let of1 = if st land 1 = 0 then p.Latency.of_term else 0. in
  let of2 = if st land 2 = 0 then p.Latency.of_term else 0. in
  out.(0) <- fmax p.Latency.latc (fmax !if1 (fmax !wt1 of1));
  out.(1) <- fmax p.Latency.latc (fmax !if2 (fmax !wt2 of2))

(* Every node's resolved consumers and last use, in one walk over the
   graph: each value node adds itself to every node its inputs resolve
   through, transparent nodes included, exactly the nodes whose
   [Values.consumers] list it.  Nodes are visited from the last, so
   each list comes out ascending and its first consumer added is its
   last use; a node's own additions are consecutive, so a duplicate is
   always the list's head. *)
let consumer_table graph =
  let n = G.node_count graph in
  let value = Array.init n (Values.is_value graph) in
  let consumers = Array.make n [] in
  let last_use = Array.init n Fun.id in
  for c = n - 1 downto 0 do
    if value.(c) then begin
      let rec visit p =
        match consumers.(p) with
        | c' :: _ when c' = c -> ()
        | l ->
          if l = [] then last_use.(p) <- Int.max p c;
          consumers.(p) <- c :: l;
          if not value.(p) then List.iter visit (G.node graph p).G.preds
      in
      List.iter visit (G.node graph c).G.preds
    end
  done;
  (consumers, last_use)

let build ?(weight_slices = fun _ -> 1) graph profiles =
  let node_count = Array.length profiles in
  Array.iter
    (fun p ->
      let ids = p.Latency.if_values in
      if Array.length p.Latency.if_secs <> Array.length ids then
        invalid_arg "Metric.build: input terms of different lengths";
      Array.iter
        (fun v ->
          if v < 0 || v >= node_count then
            invalid_arg "Metric.build: an input term outside the graph")
        ids)
    profiles;
  let slices = Array.make node_count 1 in
  let slice_base = Array.make node_count 0 in
  let next = ref (2 * node_count) in
  Array.iter
    (fun p ->
      let id = p.Latency.node_id in
      if p.Latency.wt_term > 0. then begin
        let k = max 1 (weight_slices id) in
        slices.(id) <- k;
        if k > 1 then begin
          slice_base.(id) <- !next;
          next := !next + k
        end
      end)
    profiles;
  let item_count = !next in
  let slice_node = Array.make (item_count - (2 * node_count)) 0 in
  let affected = Array.make item_count [] in
  Array.iter
    (fun p ->
      let id = p.Latency.node_id in
      if p.Latency.wt_term > 0. then
        if slices.(id) = 1 then affected.(node_count + id) <- [ id ]
        else
          for index = 0 to slices.(id) - 1 do
            slice_node.(slice_base.(id) + index - (2 * node_count)) <- id;
            affected.(slice_base.(id) + index) <- [ id ]
          done)
    profiles;
  (* A feature value affects its producer (output stream) and every
     consumer (input stream). *)
  let consumers, last_use = consumer_table graph in
  for v = 0 to G.node_count graph - 1 do
    if Values.is_value graph v then
      affected.(v) <-
        (if profiles.(v).Latency.of_term > 0. then v :: consumers.(v)
         else consumers.(v))
  done;
  let t =
    { graph;
      profiles;
      slices;
      node_count;
      item_count;
      slice_base;
      slice_node;
      consumers;
      last_use;
      affected;
      umm = [||] }
  in
  let off_chip = mark item_count in
  { t with umm = Array.init node_count (node_latency_on t off_chip) }

let weight_bytes dtype t n =
  match G.weight_shape t.graph n with
  | None -> 0
  | Some shape -> Shape.size_bytes dtype shape

let item_size_bytes dtype t = function
  | Feature_value v -> Shape.size_bytes dtype (G.output_shape t.graph v)
  | Weight_of n -> weight_bytes dtype t n
  | Weight_slice { node; of_k; _ } ->
    (weight_bytes dtype t node + of_k - 1) / of_k

let affected_nodes t item =
  let i = index_opt t item in
  if i < 0 then [] else t.affected.(i)

let umm_latency t id = t.umm.(id)

(* The item indices [node_latency_on] queries for a node, in query
   order: weight, input features, output.  DNNK's compensation tables
   key their memo bits on this enumeration. *)
let map_queried_ix t id f =
  let k = t.slices.(id) in
  let weights = if t.profiles.(id).Latency.wt_term > 0. then k else 0 in
  let ids = t.profiles.(id).Latency.if_values in
  let out = Array.make (weights + Array.length ids + 1) 0 in
  if weights > 0 then begin
    if k = 1 then out.(0) <- f (t.node_count + id)
    else
      for index = 0 to k - 1 do
        out.(index) <- f (t.slice_base.(id) + index)
      done
  end;
  for j = 0 to Array.length ids - 1 do
    out.(weights + j) <- f ids.(j)
  done;
  out.(weights + Array.length ids) <- f id;
  out

let total_latency_on t m =
  let sum = ref 0. in
  for id = 0 to t.node_count - 1 do
    sum := !sum +. node_latency_on t m id
  done;
  !sum

let static_gain_on t m nodes =
  let acc = ref 0. in
  for k = 0 to Array.length nodes - 1 do
    let id = nodes.(k) in
    acc := !acc +. t.umm.(id) -. node_latency_on t m id
  done;
  !acc

(* Every node's latency with [members] off, then each node's with them
   on, summed as [acc +. before -. after] in node order.  [saved] holds
   each member's prior slot, last member first, so restoring in its
   order gives a repeated member back the value its first occurrence
   saved. *)
let swing_gain_on t m members nodes =
  let slots = m.slots in
  let saved =
    List.fold_left
      (fun acc i ->
        let old = slots.(i) in
        slots.(i) <- 0;
        (i, old) :: acc)
      [] members
  in
  let before = Array.map (node_latency_on t m) nodes in
  List.iter (add m) members;
  let acc = ref 0. in
  for k = 0 to Array.length nodes - 1 do
    acc := !acc +. before.(k) -. node_latency_on t m nodes.(k)
  done;
  List.iter (fun (i, old) -> slots.(i) <- old) saved;
  !acc

let nodes_affected t items =
  List.concat_map (affected_nodes t) items
  |> List.sort_uniq Int.compare |> Array.of_list

let mark_of_set t on_chip =
  let m = mark t.item_count in
  mark_set t m on_chip;
  m

let total_latency t ~on_chip = total_latency_on t (mark_of_set t on_chip)

(* The gain of adding [items] to [on_chip] over [nodes]: the items
   already on chip, and those outside the metric, stay as they are. *)
let gain_of_adding t ~on_chip items nodes =
  let m = mark_of_set t on_chip in
  let adding =
    List.filter_map
      (fun it ->
        let i = index_opt t it in
        if i >= 0 && not (mem m i) then Some i else None)
      items
  in
  swing_gain_on t m adding nodes

let marginal_gain_many t ~on_chip items =
  gain_of_adding t ~on_chip items (nodes_affected t items)

let marginal_gain t ~on_chip item =
  gain_of_adding t ~on_chip [ item ] (Array.of_list (affected_nodes t item))

let eligible_items t ~memory_bound_only =
  let memory_bound = Array.map Latency.is_memory_bound t.profiles in
  let qualifies nodes =
    (not memory_bound_only) || List.exists (fun id -> memory_bound.(id)) nodes
  in
  let is_input v =
    match (G.node t.graph v).G.op with
    | Dnn_graph.Op.Input _ -> true
    | Dnn_graph.Op.Conv _ | Dnn_graph.Op.Pool _ | Dnn_graph.Op.Eltwise_add
    | Dnn_graph.Op.Concat | Dnn_graph.Op.Upsample _ | Dnn_graph.Op.Dense _ ->
      false
  in
  (* A feature value's affected nodes are its consumers, after its
     producer when that writes the value out; no node consumes its own
     value, so the consumers are the affected nodes other than [v]. *)
  let has_consumer v = List.exists (fun n -> n <> v) t.affected.(v) in
  let acc = ref [] in
  for i = t.item_count - 1 downto 0 do
    let nodes = t.affected.(i) in
    let keep =
      nodes <> []
      && qualifies nodes
      && (i >= t.node_count || ((not (is_input i)) && has_consumer i))
    in
    if keep then acc := item_of_index t i :: !acc
  done;
  List.sort compare_item !acc

let pp_item ppf = function
  | Feature_value v -> Format.fprintf ppf "f%d" v
  | Weight_of n -> Format.fprintf ppf "w%d" n
  | Weight_slice { node; index; of_k } -> Format.fprintf ppf "w%d.%d/%d" node index of_k
