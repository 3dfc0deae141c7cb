(* Model zoo: published architecture statistics and structural checks. *)

module G = Dnn_graph.Graph
module Shape = Tensor.Shape

let conv_count g =
  List.length
    (List.filter
       (fun n ->
         match n.G.op with Dnn_graph.Op.Conv _ | Dense _ -> true | _ -> false)
       (G.nodes g))

let gmacs g = float_of_int (G.total_macs g) /. 1e9

let params g = G.weight_bytes Tensor.Dtype.I8 g

let close name ~tolerance expected actual =
  let err = abs_float (actual -. expected) /. expected in
  if err > tolerance then
    Alcotest.failf "%s: expected ~%.3g, got %.3g (err %.1f%%)" name expected actual
      (100. *. err)

let test_alexnet () =
  let g = Models.Alexnet.build () in
  Alcotest.(check int) "conv+fc layers" 8 (conv_count g);
  close "alexnet params" ~tolerance:0.05 61e6 (float_of_int (params g));
  close "alexnet gmacs" ~tolerance:0.05 0.72 (gmacs g)

let test_vgg16 () =
  let g = Models.Vgg.build () in
  Alcotest.(check int) "conv+fc layers" 16 (conv_count g);
  close "vgg16 params" ~tolerance:0.02 138e6 (float_of_int (params g));
  close "vgg16 gmacs" ~tolerance:0.02 15.47 (gmacs g)

let test_googlenet () =
  let g = Models.Googlenet.build () in
  Alcotest.(check int) "conv+fc layers" 58 (conv_count g);
  close "googlenet params" ~tolerance:0.1 7e6 (float_of_int (params g));
  close "googlenet gmacs" ~tolerance:0.05 1.58 (gmacs g);
  Alcotest.(check int) "blocks tagged" 9 (List.length (G.blocks g));
  (* Final feature is 1024-d. *)
  match Helpers.find_by_name g "pool5/7x7_s1" with
  | Some nd ->
    Alcotest.(check bool) "1024 channels" true
      (Shape.equal (G.output_shape g nd.G.id)
         (Shape.feature ~channels:1024 ~height:1 ~width:1))
  | None -> Alcotest.fail "pool5 missing"

let test_resnet152 () =
  let g = Models.Resnet.build_152 () in
  (* 1 stem + 3*(3+8+36+3) bottleneck convs + projections + fc *)
  Alcotest.(check int) "conv+fc layers" (1 + (3 * 50) + 4 + 1) (conv_count g);
  close "rn152 params" ~tolerance:0.02 60.2e6 (float_of_int (params g));
  close "rn152 gmacs" ~tolerance:0.02 11.5 (gmacs g)

let test_resnet50 () =
  let g = Models.Resnet.build_50 () in
  close "rn50 params" ~tolerance:0.02 25.5e6 (float_of_int (params g));
  close "rn50 gmacs" ~tolerance:0.05 4.1 (gmacs g)

let test_resnet_plan_validation () =
  Alcotest.check_raises "depth 18 unsupported"
    (Invalid_argument "Resnet.build: unsupported depth 18") (fun () ->
      ignore (Models.Resnet.build ~depth:18));
  Alcotest.(check bool) "101 builds" true (G.node_count (Models.Resnet.build ~depth:101) > 0)

let test_inception_v4 () =
  let g = Models.Inception_v4.build () in
  close "inception-v4 params" ~tolerance:0.03 42.6e6 (float_of_int (params g));
  close "inception-v4 gmacs" ~tolerance:0.05 12.3 (gmacs g);
  Alcotest.(check int) "14 inception blocks" 14
    (List.length Models.Inception_v4.block_names);
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " non-empty") true (G.nodes_of_block g b <> []))
    Models.Inception_v4.block_names;
  (* The stem must deliver 384x35x35 to inception_a1. *)
  match Helpers.find_by_name g "stem/cat3" with
  | Some nd ->
    Alcotest.(check bool) "stem output" true
      (Shape.equal (G.output_shape g nd.G.id)
         (Shape.feature ~channels:384 ~height:35 ~width:35))
  | None -> Alcotest.fail "stem/cat3 missing"

let test_inception_v4_block_shapes () =
  let g = Models.Inception_v4.build () in
  let check_out name c h =
    match Helpers.find_by_name g name with
    | Some nd ->
      Alcotest.(check bool) name true
        (Shape.equal (G.output_shape g nd.G.id) (Shape.feature ~channels:c ~height:h ~width:h))
    | None -> Alcotest.failf "%s missing" name
  in
  check_out "inception_a1/output" 384 35;
  check_out "red_a/output" 1024 17;
  check_out "inception_b7/output" 1024 17;
  check_out "red_b/output" 1536 8;
  check_out "inception_c3/output" 1536 8

let test_mobilenet () =
  let g = Models.Mobilenet.build () in
  close "mobilenet-v2 params" ~tolerance:0.1 3.5e6 (float_of_int (params g));
  close "mobilenet-v2 gmacs" ~tolerance:0.1 0.3 (gmacs g);
  Alcotest.(check int) "17 bottlenecks" 17 (List.length (G.blocks g));
  (* Depthwise layers dominate the count of memory-bound layers. *)
  let cfg = Accel.Config.make ~style:Accel.Config.Umm Tensor.Dtype.I16 in
  let _, _, fraction = Accel.Roofline.(summary (points cfg g)) in
  Alcotest.(check bool) "mostly memory bound" true (fraction > 0.5)

let test_densenet () =
  let g = Models.Densenet.build () in
  close "densenet-121 params" ~tolerance:0.05 8.0e6 (float_of_int (params g));
  close "densenet-121 gmacs" ~tolerance:0.05 2.87 (gmacs g);
  (* The final dense block concatenates 512 + 16*32 = 1024 channels. *)
  match Helpers.find_by_name g "dense4/output" with
  | Some nd ->
    Alcotest.(check bool) "1024x7x7" true
      (Shape.equal (G.output_shape g nd.G.id)
         (Shape.feature ~channels:1024 ~height:7 ~width:7))
  | None -> Alcotest.fail "dense4/output missing"

let test_densenet_lifespans () =
  (* In a dense block, an early layer's value stays live until the block
     output: its last use through the transparent concats is far away. *)
  let g = Models.Densenet.build () in
  match Helpers.find_by_name g "dense1/l1_3x3" with
  | Some nd ->
    let last = Dnn_graph.Values.last_use g nd.G.id in
    Alcotest.(check bool) "long lifespan" true (last - nd.G.id > 10)
  | None -> Alcotest.fail "dense1/l1_3x3 missing"

let test_squeezenet () =
  let g = Models.Squeezenet.build () in
  close "squeezenet params" ~tolerance:0.05 1.23e6 (float_of_int (params g));
  Alcotest.(check int) "8 fire modules" 8 (List.length (G.blocks g));
  (* Tiny weights: everything fits in a fraction of the VU9P SRAM. *)
  Alcotest.(check bool) "weights fit on chip" true
    (G.weight_bytes Tensor.Dtype.I16 g < Fpga.Device.sram_bytes Fpga.Device.vu9p / 4)

let test_resnext50 () =
  let g = Models.Resnet.build_next_50 () in
  close "resnext50 params" ~tolerance:0.05 25.0e6 (float_of_int (params g));
  close "resnext50 gmacs" ~tolerance:0.05 4.26 (gmacs g)

let test_vgg19 () =
  let g = Models.Vgg.build_19 () in
  Alcotest.(check int) "conv+fc layers" 19 (conv_count g);
  close "vgg19 params" ~tolerance:0.02 143.7e6 (float_of_int (params g));
  close "vgg19 gmacs" ~tolerance:0.02 19.6 (gmacs g)

let test_resnet34 () =
  let g = Models.Resnet.build_34 () in
  close "resnet34 params" ~tolerance:0.05 21.5e6 (float_of_int (params g));
  close "resnet34 gmacs" ~tolerance:0.05 3.66 (gmacs g)

let test_inception_v3 () =
  let g = Models.Inception_v3.build () in
  close "inception-v3 params" ~tolerance:0.12 23e6 (float_of_int (params g));
  close "inception-v3 gmacs" ~tolerance:0.12 5.7 (gmacs g);
  Alcotest.(check int) "9 mixed blocks" 9
    (List.length
       (List.filter (String.starts_with ~prefix:"mixed_") (G.blocks g)));
  match Helpers.find_by_name g "mixed_c2/output" with
  | Some nd ->
    Alcotest.(check bool) "2048x8x8" true
      (Shape.equal (G.output_shape g nd.G.id)
         (Shape.feature ~channels:2048 ~height:8 ~width:8))
  | None -> Alcotest.fail "mixed_c2/output missing"

let test_zoo_lookup () =
  Alcotest.(check bool) "alias rn" true (Models.Zoo.find "RN" <> None);
  Alcotest.(check bool) "alias in" true (Models.Zoo.find "IN" <> None);
  Alcotest.(check bool) "unknown" true (Models.Zoo.find "lenet" = None);
  Alcotest.check_raises "build unknown"
    (Invalid_argument
       "Zoo.build: unknown model \"lenet\" (known: resnet152, resnet50, googlenet, inception_v4, alexnet, vgg16, mobilenet_v2, densenet121, squeezenet, resnext50, vgg19, resnet34, inception_v3)")
    (fun () -> ignore (Models.Zoo.build "lenet"))

let test_all_models_validate () =
  List.iter
    (fun e ->
      let g = e.Models.Zoo.build () in
      (* Rebuilding from the node list must round-trip validation. *)
      match G.create (G.nodes g) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" e.Models.Zoo.model_name msg)
    Models.Zoo.all

let test_single_sink () =
  (* Classification models end in exactly one sink: the logits. *)
  List.iter
    (fun e ->
      let g = e.Models.Zoo.build () in
      let sinks =
        List.filter (fun nd -> G.succs g nd.G.id = []) (G.nodes g)
      in
      Alcotest.(check int) (e.Models.Zoo.model_name ^ " sinks") 1 (List.length sinks))
    Models.Zoo.all

let suite =
  [ Alcotest.test_case "alexnet" `Quick test_alexnet;
    Alcotest.test_case "vgg16" `Quick test_vgg16;
    Alcotest.test_case "googlenet" `Quick test_googlenet;
    Alcotest.test_case "resnet152" `Quick test_resnet152;
    Alcotest.test_case "resnet50" `Quick test_resnet50;
    Alcotest.test_case "resnet plan validation" `Quick test_resnet_plan_validation;
    Alcotest.test_case "inception v4" `Quick test_inception_v4;
    Alcotest.test_case "inception v4 block shapes" `Quick test_inception_v4_block_shapes;
    Alcotest.test_case "mobilenet" `Quick test_mobilenet;
    Alcotest.test_case "densenet" `Quick test_densenet;
    Alcotest.test_case "densenet lifespans" `Quick test_densenet_lifespans;
    Alcotest.test_case "squeezenet" `Quick test_squeezenet;
    Alcotest.test_case "resnext50" `Quick test_resnext50;
    Alcotest.test_case "resnet34" `Quick test_resnet34;
    Alcotest.test_case "inception v3" `Quick test_inception_v3;
    Alcotest.test_case "vgg19" `Quick test_vgg19;
    Alcotest.test_case "zoo lookup" `Quick test_zoo_lookup;
    Alcotest.test_case "all models validate" `Quick test_all_models_validate;
    Alcotest.test_case "single sink" `Quick test_single_sink ]
