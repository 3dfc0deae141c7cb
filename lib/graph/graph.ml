type node = {
  id : int;
  node_name : string;
  op : Op.t;
  preds : int list;
  block : string option;
}

type t = {
  node_arr : node array;
  shapes : Tensor.Shape.t array;          (* output shape per node *)
  weights : Tensor.Shape.t option array;  (* weight shape per node *)
  succ_arr : int list array;       (* consumers per node, increasing ids *)
}

let node_count g = Array.length g.node_arr

let node g id =
  if id < 0 || id >= node_count g then
    invalid_arg (Printf.sprintf "Graph.node: id %d out of range" id);
  g.node_arr.(id)

let nodes g = Array.to_list g.node_arr

let succs g id =
  if id < 0 || id >= node_count g then
    invalid_arg (Printf.sprintf "Graph.succs: id %d out of range" id);
  g.succ_arr.(id)

let output_shape g id =
  if id < 0 || id >= node_count g then
    invalid_arg (Printf.sprintf "Graph.output_shape: id %d out of range" id);
  g.shapes.(id)

let weight_shape g id =
  if id < 0 || id >= node_count g then
    invalid_arg (Printf.sprintf "Graph.weight_shape: id %d out of range" id);
  g.weights.(id)

let input_shapes g id =
  let n = node g id in
  List.map (fun p -> output_shape g p) n.preds

let macs g id = Op.macs (node g id).op (input_shapes g id)

let aux_ops g id = Op.aux_ops (node g id).op (input_shapes g id)

let total_macs g =
  let sum = ref 0 in
  for id = 0 to node_count g - 1 do
    sum := !sum + macs g id
  done;
  !sum

let blocks g =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  Array.iter
    (fun n ->
      match n.block with
      | None -> ()
      | Some b ->
        if not (Hashtbl.mem seen b) then begin
          Hashtbl.add seen b ();
          order := b :: !order
        end)
    g.node_arr;
  List.rev !order

let nodes_of_block g b =
  Array.to_list g.node_arr
  |> List.filter_map (fun n -> if n.block = Some b then Some n.id else None)

let weight_bytes dtype g =
  Array.fold_left
    (fun acc w ->
      match w with None -> acc | Some shape -> acc + Tensor.Shape.size_bytes dtype shape)
    0 g.weights

(* Validation: ids dense/increasing, preds precede users, shapes infer,
   sources are exactly the Input nodes. *)
let create node_list =
  let node_arr = Array.of_list node_list in
  let n = Array.length node_arr in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check_ids i =
    if i >= n then Ok ()
    else if node_arr.(i).id <> i then
      err "node at position %d has id %d (ids must be dense and increasing)" i
        node_arr.(i).id
    else check_ids (i + 1)
  in
  let rec check_preds i =
    if i >= n then Ok ()
    else
      let bad = List.filter (fun p -> p < 0 || p >= node_arr.(i).id) node_arr.(i).preds in
      match bad with
      | [] -> check_preds (i + 1)
      | p :: _ ->
        err "node %d (%s): predecessor %d does not precede it" i
          node_arr.(i).node_name p
  in
  let check_sources () =
    let rec loop i =
      if i >= n then Ok ()
      else
        let is_input = match node_arr.(i).op with Op.Input _ -> true | _ -> false in
        let no_preds = node_arr.(i).preds = [] in
        if is_input && not no_preds then
          err "node %d: Input node has predecessors" i
        else if (not is_input) && no_preds then
          err "node %d (%s): non-Input node has no predecessors" i
            node_arr.(i).node_name
        else loop (i + 1)
    in
    loop 0
  in
  match check_ids 0 with
  | Error _ as e -> e
  | Ok () ->
  match check_preds 0 with
  | Error _ as e -> e
  | Ok () ->
  match check_sources () with
  | Error _ as e -> e
  | Ok () ->
    let shapes = Array.make (max n 1) (Tensor.Shape.vector 1) in
    let weights = Array.make (max n 1) None in
    let rec infer i =
      if i >= n then Ok ()
      else
        let nd = node_arr.(i) in
        let inputs = List.map (fun p -> shapes.(p)) nd.preds in
        match Op.output_shape nd.op inputs with
        | Error msg -> err "node %d (%s): %s" i nd.node_name msg
        | Ok shape ->
          shapes.(i) <- shape;
          weights.(i) <- Op.weight_shape nd.op inputs;
          infer (i + 1)
    in
    (match infer 0 with
    | Error _ as e -> e
    | Ok () ->
      let succ_rev = Array.make (max n 1) [] in
      Array.iter
        (fun nd -> List.iter (fun p -> succ_rev.(p) <- nd.id :: succ_rev.(p)) nd.preds)
        node_arr;
      let succ_arr = Array.map (fun l -> List.sort_uniq compare l) succ_rev in
      Ok { node_arr; shapes; weights; succ_arr })

let create_exn node_list =
  match create node_list with
  | Ok g -> g
  | Error msg -> invalid_arg ("Graph.create_exn: " ^ msg)

let pp_summary ppf g =
  Array.iter
    (fun nd ->
      Format.fprintf ppf "%3d %-24s %-10s out=%a%s preds=[%s]@."
        nd.id nd.node_name (Op.name nd.op) Tensor.Shape.pp g.shapes.(nd.id)
        (match g.weights.(nd.id) with
        | None -> ""
        | Some w -> Format.asprintf " wt=%a" Tensor.Shape.pp w)
        (String.concat ";" (List.map string_of_int nd.preds)))
    g.node_arr
