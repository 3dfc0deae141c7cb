let is_transparent = function
  | Op.Concat -> true
  | Op.Input _ | Op.Conv _ | Op.Pool _ | Op.Eltwise_add | Op.Upsample _ | Op.Dense _ -> false

let is_value g id = not (is_transparent (Graph.node g id).Graph.op)

(* The values the nodes [preds] resolve to, in input order, counted and
   then written into an array of that size.  [value] classifies a
   node. *)
let resolve ~value g preds =
  let rec count k = function
    | [] -> k
    | p :: rest ->
      let k = if value p then k + 1 else count k (Graph.node g p).Graph.preds in
      count k rest
  in
  let rec fill a i = function
    | [] -> i
    | p :: rest ->
      let i =
        if value p then begin
          a.(i) <- p;
          i + 1
        end
        else fill a i (Graph.node g p).Graph.preds
      in
      fill a i rest
  in
  let a = Array.make (count 0 preds) 0 in
  ignore (fill a 0 preds);
  a

let source_values g id =
  Array.to_list (resolve ~value:(is_value g) g (Graph.node g id).Graph.preds)

let source_table g =
  let n = Graph.node_count g in
  let value = Array.init n (is_value g) in
  Array.init n (fun id ->
      resolve ~value:(Array.get value) g (Graph.node g id).Graph.preds)

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
