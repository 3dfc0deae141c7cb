type volumes = { if_bytes : int; wt_bytes : int; of_bytes : int }

let value_bytes dtype g id = Tensor.Shape.size_bytes dtype (Graph.output_shape g id)

let weight_bytes dtype g id =
  match Graph.weight_shape g id with
  | None -> 0
  | Some shape -> Tensor.Shape.size_bytes dtype shape

let volumes dtype g id =
  let if_bytes =
    List.fold_left
      (fun acc shape -> acc + Tensor.Shape.size_bytes dtype shape)
      0 (Graph.input_shapes g id)
  in
  { if_bytes; wt_bytes = weight_bytes dtype g id; of_bytes = value_bytes dtype g id }

let total_bytes v = v.if_bytes + v.wt_bytes + v.of_bytes

let ops g id = (2 * Graph.macs g id) + Graph.aux_ops g id

let op_intensity dtype g id =
  let bytes = total_bytes (volumes dtype g id) in
  if bytes = 0 then infinity else float_of_int (ops g id) /. float_of_int bytes

let total_feature_bytes dtype g =
  let sum = ref 0 in
  for id = 0 to Graph.node_count g - 1 do
    sum := !sum + value_bytes dtype g id
  done;
  !sum
