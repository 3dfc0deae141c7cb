let value_bytes dtype g id = Tensor.Shape.size_bytes dtype (Graph.output_shape g id)

let op_intensity dtype g id =
  let size = Tensor.Shape.size_bytes dtype in
  let bytes =
    List.fold_left (fun acc shape -> acc + size shape) 0 (Graph.input_shapes g id)
    + (match Graph.weight_shape g id with None -> 0 | Some shape -> size shape)
    + value_bytes dtype g id
  in
  let ops = (2 * Graph.macs g id) + Graph.aux_ops g id in
  if bytes = 0 then infinity else float_of_int ops /. float_of_int bytes

let total_feature_bytes dtype g =
  let sum = ref 0 in
  for id = 0 to Graph.node_count g - 1 do
    sum := !sum + value_bytes dtype g id
  done;
  !sum
