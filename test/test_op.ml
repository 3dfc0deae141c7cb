(* Operator shape inference and cost accounting. *)

module Op = Dnn_graph.Op
module Shape = Tensor.Shape

let shape_t = Alcotest.testable Shape.pp Shape.equal

let feature c h w = Shape.feature ~channels:c ~height:h ~width:w

let infer op inputs =
  match Op.output_shape op inputs with
  | Ok s -> s
  | Error msg -> Alcotest.failf "unexpected inference error: %s" msg

let expect_error op inputs =
  match Op.output_shape op inputs with
  | Ok s -> Alcotest.failf "expected error, got %s" (Shape.to_string s)
  | Error _ -> ()

let test_conv_same () =
  let op = Helpers.conv_op ~out_channels:64 ~kernel:(3, 3) () in
  Alcotest.check shape_t "same padding keeps extent" (feature 64 56 56)
    (infer op [ feature 32 56 56 ])

let test_conv_same_strided () =
  let op = Helpers.conv_op ~stride:(2, 2) ~out_channels:64 ~kernel:(3, 3) () in
  Alcotest.check shape_t "ceil division" (feature 64 28 28)
    (infer op [ feature 32 56 56 ]);
  Alcotest.check shape_t "odd extent" (feature 64 38 38)
    (infer op [ feature 32 75 75 ])

let test_conv_valid () =
  let op =
    Helpers.conv_op ~padding:Op.Valid ~out_channels:32 ~kernel:(3, 3) ()
  in
  Alcotest.check shape_t "valid shrinks" (feature 32 147 147)
    (infer op [ feature 3 149 149 ]);
  let strided =
    Helpers.conv_op ~padding:Op.Valid ~stride:(2, 2) ~out_channels:32
      ~kernel:(3, 3) ()
  in
  Alcotest.check shape_t "inception stem conv" (feature 32 149 149)
    (infer strided [ feature 3 299 299 ])

let test_conv_explicit () =
  let op =
    Helpers.conv_op ~padding:(Op.Explicit 3) ~stride:(2, 2) ~out_channels:64
      ~kernel:(7, 7) ()
  in
  Alcotest.check shape_t "resnet conv1" (feature 64 112 112)
    (infer op [ feature 3 224 224 ])

let test_conv_asymmetric_kernel () =
  let op = Helpers.conv_op ~out_channels:64 ~kernel:(1, 7) () in
  Alcotest.check shape_t "1x7 keeps extent under same" (feature 64 17 17)
    (infer op [ feature 128 17 17 ])

let test_conv_groups () =
  let op = Helpers.conv_op ~groups:2 ~out_channels:256 ~kernel:(5, 5) () in
  Alcotest.check shape_t "grouped conv" (feature 256 27 27)
    (infer op [ feature 96 27 27 ]);
  expect_error (Helpers.conv_op ~groups:3 ~out_channels:256 ~kernel:(3, 3) ())
    [ feature 32 8 8 ]

let test_conv_errors () =
  let op = Helpers.conv_op ~out_channels:8 ~kernel:(3, 3) () in
  expect_error op [];
  expect_error op [ Shape.vector 10 ];
  expect_error op [ feature 1 4 4; feature 1 4 4 ];
  expect_error
    (Helpers.conv_op ~padding:Op.Valid ~out_channels:8 ~kernel:(9, 9) ())
    [ feature 4 5 5 ]

let test_pool () =
  let pool =
    Op.Pool
      { pool_kind = Op.Max; pool_kernel = (3, 3); pool_stride = (2, 2);
        pool_padding = Op.Same; global = false }
  in
  Alcotest.check shape_t "3x3/2 same" (feature 64 56 56) (infer pool [ feature 64 112 112 ]);
  let global =
    Op.Pool
      { pool_kind = Op.Avg; pool_kernel = (1, 1); pool_stride = (1, 1);
        pool_padding = Op.Valid; global = true }
  in
  Alcotest.check shape_t "global" (feature 1024 1 1) (infer global [ feature 1024 7 7 ])

let test_eltwise () =
  Alcotest.check shape_t "same shapes" (feature 64 8 8)
    (infer Op.Eltwise_add [ feature 64 8 8; feature 64 8 8 ]);
  expect_error Op.Eltwise_add [ feature 64 8 8 ];
  expect_error Op.Eltwise_add [ feature 64 8 8; feature 32 8 8 ]

let test_concat () =
  Alcotest.check shape_t "channel sum" (feature 96 8 8)
    (infer Op.Concat [ feature 64 8 8; feature 32 8 8 ]);
  expect_error Op.Concat [ feature 64 8 8; feature 32 4 4 ];
  expect_error Op.Concat []

let test_upsample () =
  Alcotest.check shape_t "x2" (feature 16 32 32)
    (infer (Op.Upsample { factor = 2 }) [ feature 16 16 16 ]);
  expect_error (Op.Upsample { factor = 0 }) [ feature 16 16 16 ]

let test_dense () =
  Alcotest.check shape_t "flattening dense" (Shape.vector 4096)
    (infer (Op.Dense { out_features = 4096 }) [ feature 256 6 6 ]);
  Alcotest.check shape_t "vector dense" (Shape.vector 1000)
    (infer (Op.Dense { out_features = 1000 }) [ Shape.vector 4096 ])

let test_weight_shapes () =
  let conv = Helpers.conv_op ~out_channels:256 ~kernel:(3, 3) () in
  Alcotest.check (Alcotest.option shape_t) "conv weights"
    (Some (Shape.filter ~out_channels:256 ~in_channels:64 ~kernel_h:3 ~kernel_w:3))
    (Op.weight_shape conv [ feature 64 56 56 ]);
  let grouped = Helpers.conv_op ~groups:2 ~out_channels:64 ~kernel:(3, 3) () in
  Alcotest.check (Alcotest.option shape_t) "grouped weights halve in_channels"
    (Some (Shape.filter ~out_channels:64 ~in_channels:16 ~kernel_h:3 ~kernel_w:3))
    (Op.weight_shape grouped [ feature 32 8 8 ]);
  Alcotest.check (Alcotest.option shape_t) "pool has none" None
    (Op.weight_shape
       (Op.Pool
          { pool_kind = Op.Max; pool_kernel = (2, 2); pool_stride = (2, 2);
            pool_padding = Op.Valid; global = false })
       [ feature 8 8 8 ])

let test_macs () =
  let conv = Helpers.conv_op ~out_channels:64 ~kernel:(3, 3) () in
  Alcotest.(check int) "conv macs" (56 * 56 * 64 * 32 * 9)
    (Op.macs conv [ feature 32 56 56 ]);
  let grouped = Helpers.conv_op ~groups:2 ~out_channels:64 ~kernel:(3, 3) () in
  Alcotest.(check int) "grouped macs halve" (8 * 8 * 64 * 16 * 9)
    (Op.macs grouped [ feature 32 8 8 ]);
  Alcotest.(check int) "dense macs" (4096 * 1000)
    (Op.macs (Op.Dense { out_features = 1000 }) [ Shape.vector 4096 ]);
  Alcotest.(check int) "pool has no macs" 0
    (Op.macs
       (Op.Pool
          { pool_kind = Op.Max; pool_kernel = (2, 2); pool_stride = (2, 2);
            pool_padding = Op.Valid; global = false })
       [ feature 8 8 8 ])

let test_aux_ops () =
  Alcotest.(check int) "eltwise ops" (64 * 8 * 8)
    (Op.aux_ops Op.Eltwise_add [ feature 64 8 8; feature 64 8 8 ]);
  Alcotest.(check bool) "pool ops positive" true
    (Op.aux_ops
       (Op.Pool
          { pool_kind = Op.Max; pool_kernel = (3, 3); pool_stride = (2, 2);
            pool_padding = Op.Same; global = false })
       [ feature 8 16 16 ]
    > 0);
  Alcotest.(check int) "conv has no aux ops" 0
    (Op.aux_ops (Helpers.conv_op ~out_channels:8 ~kernel:(1, 1) ()) [ feature 8 4 4 ])

let prop_same_padding_ceil =
  Helpers.qtest "same padding output = ceil(extent/stride)"
    QCheck2.Gen.(
      quad (int_range 1 128) (int_range 1 3) (int_range 1 7) (int_range 1 64))
    (fun (extent, stride, k, channels) ->
      let op =
        Helpers.conv_op ~stride:(stride, stride) ~out_channels:8 ~kernel:(k, k) ()
      in
      match
        Op.output_shape op [ Shape.feature ~channels ~height:extent ~width:extent ]
      with
      | Ok s -> (
        match Shape.as_feature s with
        | Some f -> f.Shape.height = (extent + stride - 1) / stride
        | None -> false)
      | Error _ -> false)

let prop_macs_scale_with_channels =
  Helpers.qtest "macs linear in output channels"
    QCheck2.Gen.(pair (int_range 1 32) (int_range 1 16))
    (fun (oc, ic) ->
      let op k = Helpers.conv_op ~out_channels:k ~kernel:(3, 3) () in
      let input = [ Shape.feature ~channels:ic ~height:8 ~width:8 ] in
      Op.macs (op (2 * oc)) input = 2 * Op.macs (op oc) input)

let suite =
  [ Alcotest.test_case "conv same" `Quick test_conv_same;
    Alcotest.test_case "conv same strided" `Quick test_conv_same_strided;
    Alcotest.test_case "conv valid" `Quick test_conv_valid;
    Alcotest.test_case "conv explicit" `Quick test_conv_explicit;
    Alcotest.test_case "conv asymmetric" `Quick test_conv_asymmetric_kernel;
    Alcotest.test_case "conv groups" `Quick test_conv_groups;
    Alcotest.test_case "conv errors" `Quick test_conv_errors;
    Alcotest.test_case "pool" `Quick test_pool;
    Alcotest.test_case "eltwise" `Quick test_eltwise;
    Alcotest.test_case "concat" `Quick test_concat;
    Alcotest.test_case "upsample" `Quick test_upsample;
    Alcotest.test_case "dense" `Quick test_dense;
    Alcotest.test_case "weight shapes" `Quick test_weight_shapes;
    Alcotest.test_case "macs" `Quick test_macs;
    Alcotest.test_case "aux ops" `Quick test_aux_ops;
    prop_same_padding_ceil;
    prop_macs_scale_with_channels ]
