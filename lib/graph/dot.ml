let escape s =
  String.concat "" (List.map (function '"' -> "\\\"" | c -> String.make 1 c)
                      (List.init (String.length s) (String.get s)))

let to_dot g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph dnn {\n  rankdir=TB;\n";
  let emit_node nd =
    let shape = Graph.output_shape g nd.Graph.id in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\\n%s %s\"];\n" nd.Graph.id
         (escape nd.Graph.node_name) (Op.name nd.Graph.op) (Tensor.Shape.to_string shape))
  in
  let in_block b nd = nd.Graph.block = Some b in
  let all = Graph.nodes g in
  let blocks = Graph.blocks g in
  List.iteri
    (fun i b ->
      Buffer.add_string buf
        (Printf.sprintf "  subgraph cluster_%d {\n    label=\"%s\";\n" i (escape b));
      List.iter (fun nd -> if in_block b nd then emit_node nd) all;
      Buffer.add_string buf "  }\n")
    blocks;
  List.iter (fun nd -> if nd.Graph.block = None then emit_node nd) all;
  List.iter
    (fun nd ->
      List.iter
        (fun p -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" p nd.Graph.id))
        nd.Graph.preds)
    all;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ~path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_dot g))
