(* Graph construction, validation, builder and value resolution. *)

module B = Dnn_graph.Builder
module G = Dnn_graph.Graph
module Op = Dnn_graph.Op
module Values = Dnn_graph.Values
module Shape = Tensor.Shape

let node ?(block = None) id name op preds =
  { G.id; node_name = name; op; preds; block }

let input_op = Op.Input { channels = 8; height = 16; width = 16 }

let conv_op = Helpers.conv_op ~out_channels:8 ~kernel:(3, 3) ()

let test_create_valid () =
  match G.create [ node 0 "in" input_op []; node 1 "c" conv_op [ 0 ] ] with
  | Ok g ->
    Alcotest.(check int) "count" 2 (G.node_count g);
    Alcotest.(check (list int)) "succs" [ 1 ] (G.succs g 0);
    Alcotest.(check (list int)) "sink" [] (G.succs g 1)
  | Error msg -> Alcotest.fail msg

let expect_create_error nodes =
  match G.create nodes with
  | Ok _ -> Alcotest.fail "expected validation error"
  | Error _ -> ()

let test_create_errors () =
  expect_create_error [ node 1 "in" input_op [] ];
  expect_create_error [ node 0 "in" input_op []; node 1 "c" conv_op [ 1 ] ];
  expect_create_error [ node 0 "in" input_op []; node 1 "c" conv_op [] ];
  expect_create_error [ node 0 "in" input_op [ 0 ] ];
  expect_create_error
    [ node 0 "in" input_op []; node 1 "bad" (Op.Dense { out_features = 0 }) [ 0 ] ]

let test_shapes_and_weights () =
  let g = Helpers.chain () in
  Alcotest.(check bool) "conv has weights" true (G.weight_shape g 1 <> None);
  Alcotest.(check bool) "input has none" true (G.weight_shape g 0 = None);
  Alcotest.(check bool) "macs positive" true (G.macs g 1 > 0);
  Alcotest.(check int) "total macs is sum"
    (G.macs g 1 + G.macs g 2 + G.macs g 3)
    (G.total_macs g)

let test_out_of_range () =
  let g = Helpers.chain () in
  Alcotest.check_raises "node" (Invalid_argument "Graph.node: id 99 out of range")
    (fun () -> ignore (G.node g 99))

let test_builder_names_and_blocks () =
  let b = B.create () in
  let x = B.input b ~name:"img" ~channels:4 ~height:8 ~width:8 () in
  let _c =
    B.with_block b "stage1" (fun () ->
        B.conv b ~name:"c1" ~kernel:(1, 1) ~out_channels:8 x)
  in
  let _d = B.conv b ~name:"c2" ~kernel:(1, 1) ~out_channels:8 x in
  let g = B.finish b in
  Alcotest.(check (list string)) "blocks" [ "stage1" ] (G.blocks g);
  Alcotest.(check (list int)) "block nodes" [ 1 ] (G.nodes_of_block g "stage1");
  (match Helpers.find_by_name g "c2" with
  | Some nd -> Alcotest.(check int) "found" 2 nd.G.id
  | None -> Alcotest.fail "c2 not found");
  Alcotest.(check bool) "missing" true (Helpers.find_by_name g "zzz" = None)

let test_builder_shape_error_eager () =
  let b = B.create () in
  let x = B.input b ~channels:4 ~height:8 ~width:8 () in
  let y = B.pool b ~kernel:(2, 2) ~stride:(2, 2) x in
  Alcotest.(check bool) "raises at add time" true
    (try
       ignore (B.add b [ x; y ]);
       false
     with Invalid_argument _ -> true)

let test_weight_bytes () =
  let g = Helpers.chain () in
  (* c1: 32x16x3x3, c2: 32x32x3x3, c3: 64x32x1x1 *)
  let expect = (32 * 16 * 9) + (32 * 32 * 9) + (64 * 32) in
  Alcotest.(check int) "weights i8" expect (G.weight_bytes Tensor.Dtype.I8 g);
  Alcotest.(check int) "weights i16" (2 * expect) (G.weight_bytes Tensor.Dtype.I16 g)

let test_values_transparency () =
  let g = Helpers.inception_snippet () in
  (* Node 6 is the concat; node 7 (C6) reads through it. *)
  Alcotest.(check bool) "concat transparent" false (Values.is_value g 6);
  Alcotest.(check (list int)) "resolved sources" [ 1; 3; 5 ] (Values.source_values g 7);
  (* C1 (node 1) feeds only the concat; its real consumer is C6. *)
  Alcotest.(check (list int)) "consumers through concat" [ 7 ] (Values.consumers g 1);
  Alcotest.(check int) "last use" 7 (Values.last_use g 1);
  (* The graph output has no consumers. *)
  Alcotest.(check (list int)) "sink" [] (Values.consumers g 7);
  Alcotest.(check int) "sink last use is self" 7 (Values.last_use g 7)

let test_values_diamond () =
  let g = Helpers.diamond () in
  (* Input value 0 read by both branches. *)
  Alcotest.(check (list int)) "input consumers" [ 1; 2 ] (Values.consumers g 0);
  (* The add (4) reads proj (1) and body2 (3). *)
  Alcotest.(check (list int)) "add sources" [ 1; 3 ] (Values.source_values g 4)

let test_analysis_volumes () =
  let g = Helpers.chain () in
  (* Input, weight and output bytes of the first conv at i8. *)
  let bytes = (16 * 32 * 32) + (32 * 16 * 9) + (32 * 32 * 32) in
  let ops = (2 * G.macs g 1) + G.aux_ops g 1 in
  Alcotest.(check (float 0.)) "intensity"
    (float_of_int ops /. float_of_int bytes)
    (Dnn_graph.Analysis.op_intensity Tensor.Dtype.I8 g 1)

let test_dot_export () =
  let g = Helpers.diamond () in
  let path = Filename.temp_file "lcmm" ".dot" in
  Dnn_graph.Dot.write_file ~path g;
  let dot = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  (* every edge present *)
  List.iter
    (fun nd ->
      List.iter
        (fun p ->
          let edge = Printf.sprintf "n%d -> n%d;" p nd.G.id in
          let found =
            let rec scan i =
              i + String.length edge <= String.length dot
              && (String.sub dot i (String.length edge) = edge || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) edge true found)
        nd.G.preds)
    (G.nodes g)

let prop_random_graphs_valid =
  Helpers.qtest ~count:60 "random builder graphs validate" Helpers.random_graph_gen
    (fun g ->
      (* Re-validating the node list must succeed and succs/preds agree. *)
      match G.create (G.nodes g) with
      | Error _ -> false
      | Ok g2 ->
        List.for_all
          (fun nd ->
            List.for_all
              (fun p -> List.mem nd.G.id (G.succs g2 p))
              nd.G.preds)
          (G.nodes g2))

let prop_last_use_ge_def =
  Helpers.qtest ~count:60 "last use is at or after definition"
    Helpers.random_graph_gen (fun g ->
      List.for_all
        (fun nd -> Values.(not (is_value g nd.G.id)) || Values.last_use g nd.G.id >= nd.G.id)
        (G.nodes g))

let suite =
  [ Alcotest.test_case "create valid" `Quick test_create_valid;
    Alcotest.test_case "create errors" `Quick test_create_errors;
    Alcotest.test_case "shapes and weights" `Quick test_shapes_and_weights;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "builder names/blocks" `Quick test_builder_names_and_blocks;
    Alcotest.test_case "builder eager errors" `Quick test_builder_shape_error_eager;
    Alcotest.test_case "weight bytes" `Quick test_weight_bytes;
    Alcotest.test_case "values transparency" `Quick test_values_transparency;
    Alcotest.test_case "values diamond" `Quick test_values_diamond;
    Alcotest.test_case "analysis volumes" `Quick test_analysis_volumes;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    prop_random_graphs_valid;
    prop_last_use_ge_def ]
