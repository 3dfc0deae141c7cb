module G = Dnn_graph.Graph
module Values = Dnn_graph.Values
module Latency = Accel.Latency
module Shape = Tensor.Shape

type item =
  | Feature_value of int
  | Weight_of of int
  | Weight_slice of { node : int; index : int; of_k : int }

module Item_set = Set.Make (struct
  type t = item

  let compare = Stdlib.compare
end)

type t = {
  graph : G.t;
  profiles : Latency.profile array;
  slices : int array;
  node_count : int;
  item_count : int;
  slice_base : int array;
  slice_node : int array;
  affected : int list array;
  if_ids : int array array;
  if_secs : float array array;
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

let fmax (a : float) b = if a >= b then a else b

(* Eq. 1 with fractional weight residency: the streamed share of a sliced
   weight tensor scales its transfer term.  [fmax] is [Stdlib.max]
   specialised to floats (same comparison, same result). *)
let node_latency_ix t ~on id =
  let p = t.profiles.(id) in
  let k = t.slices.(id) in
  let wt_time =
    if p.Latency.wt_term <= 0. then 0.
    else if k = 1 then if on (t.node_count + id) then 0. else p.Latency.wt_term
    else begin
      let base = t.slice_base.(id) in
      let off = ref 0 in
      for index = 0 to k - 1 do
        if not (on (base + index)) then incr off
      done;
      p.Latency.wt_term *. float_of_int !off /. float_of_int k
    end
  in
  let ids = t.if_ids.(id) and secs = t.if_secs.(id) in
  let if_time = ref 0. in
  for j = 0 to Array.length ids - 1 do
    if not (on ids.(j)) then if_time := !if_time +. secs.(j)
  done;
  let of_time = if on id then 0. else p.Latency.of_term in
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

(* [node_latency_ix] under two predicates at once, each decided by one
   code per queried item (in [map_queried_ix] order).  Each evaluation
   performs the float operations of [node_latency_ix] in the same
   order, so both results are bit for bit the single-predicate ones. *)
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
  let secs = t.if_secs.(id) in
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

let terms_of f terms = Array.of_list (List.map f terms)

let build ?(weight_slices = fun _ -> 1) graph profiles =
  let node_count = Array.length profiles in
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
  for v = 0 to G.node_count graph - 1 do
    if Values.is_value graph v then begin
      let consumers = Values.consumers graph v in
      affected.(v) <-
        (if profiles.(v).Latency.of_term > 0. then v :: consumers
         else consumers)
    end
  done;
  let t =
    { graph;
      profiles;
      slices;
      node_count;
      item_count;
      slice_base;
      slice_node;
      affected;
      if_ids = Array.map (fun p -> terms_of fst p.Latency.if_terms) profiles;
      if_secs = Array.map (fun p -> terms_of snd p.Latency.if_terms) profiles;
      umm = [||] }
  in
  let off_chip _ = false in
  { t with umm = Array.init node_count (node_latency_ix t ~on:off_chip) }

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

(* The item indices [node_latency_ix] queries for a node, in query
   order: weight, input features, output.  DNNK's compensation tables
   key their memo bits on this enumeration. *)
let map_queried_ix t id f =
  let k = t.slices.(id) in
  let weights = if t.profiles.(id).Latency.wt_term > 0. then k else 0 in
  let ids = t.if_ids.(id) in
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

let total_latency_ix t ~on =
  let sum = ref 0. in
  for id = 0 to t.node_count - 1 do
    sum := !sum +. node_latency_ix t ~on id
  done;
  !sum

let gain_ix t ~before ~after nodes =
  let acc = ref 0. in
  for k = 0 to Array.length nodes - 1 do
    let id = nodes.(k) in
    acc :=
      !acc +. node_latency_ix t ~on:before id -. node_latency_ix t ~on:after id
  done;
  !acc

let static_gain_ix t ~on nodes =
  let acc = ref 0. in
  for k = 0 to Array.length nodes - 1 do
    let id = nodes.(k) in
    acc := !acc +. t.umm.(id) -. node_latency_ix t ~on id
  done;
  !acc

let mem_pred t on_chip i = Item_set.mem (item_of_index t i) on_chip

let node_latency t ~on_chip id = node_latency_ix t ~on:(mem_pred t on_chip) id

let total_latency t ~on_chip = total_latency_ix t ~on:(mem_pred t on_chip)

let marginal_gain_many t ~on_chip items =
  let nodes =
    List.concat_map (affected_nodes t) items |> List.sort_uniq compare
  in
  let with_items =
    List.fold_left (fun acc it -> Item_set.add it acc) on_chip items
  in
  gain_ix t ~before:(mem_pred t on_chip) ~after:(mem_pred t with_items)
    (Array.of_list nodes)

let marginal_gain t ~on_chip item =
  gain_ix t ~before:(mem_pred t on_chip)
    ~after:(mem_pred t (Item_set.add item on_chip))
    (Array.of_list (affected_nodes t item))

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
  let acc = ref [] in
  for i = t.item_count - 1 downto 0 do
    let nodes = t.affected.(i) in
    let keep =
      nodes <> []
      && qualifies nodes
      && (i >= t.node_count
         || ((not (is_input i)) && Values.consumers t.graph i <> []))
    in
    if keep then acc := item_of_index t i :: !acc
  done;
  List.sort compare !acc

let pp_item ppf = function
  | Feature_value v -> Format.fprintf ppf "f%d" v
  | Weight_of n -> Format.fprintf ppf "w%d" n
  | Weight_slice { node; index; of_k } -> Format.fprintf ppf "w%d.%d/%d" node index of_k
