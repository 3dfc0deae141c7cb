let is_transparent = function
  | Op.Concat -> true
  | Op.Input _ | Op.Conv _ | Op.Pool _ | Op.Eltwise_add | Op.Upsample _ | Op.Dense _ -> false

let is_value g id = not (is_transparent (Graph.node g id).Graph.op)

let rec resolve g id =
  if is_value g id then [ id ]
  else List.concat_map (resolve g) (Graph.node g id).Graph.preds

let source_values g id = List.concat_map (resolve g) (Graph.node g id).Graph.preds

let consumers g id =
  (* Breadth over successors, passing through transparent nodes. *)
  let rec expand acc = function
    | [] -> acc
    | s :: rest ->
      if is_value g s then expand (s :: acc) rest
      else expand acc (Graph.succs g s @ rest)
  in
  expand [] (Graph.succs g id) |> List.sort_uniq Int.compare

let last_use g id =
  match consumers g id with
  | [] -> id
  | uses -> List.fold_left max id uses
