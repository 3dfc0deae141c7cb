module B = Dnn_graph.Builder
module Op = Dnn_graph.Op

let name = "mobilenet_v2"

(* (expansion factor, output channels, repeats, first stride) per stage,
   from Table 2 of the MobileNet-v2 paper. *)
let stages =
  [ (1, 16, 1, 1);
    (6, 24, 2, 2);
    (6, 32, 3, 2);
    (6, 64, 4, 2);
    (6, 96, 3, 1);
    (6, 160, 3, 2);
    (6, 320, 1, 1) ]

(* One inverted residual: 1x1 expand, 3x3 depthwise (stride here), 1x1
   project, with a shortcut when shapes allow. *)
let inverted_residual b ~tag ~expansion ~out_channels ~stride x =
  B.with_block b tag (fun () ->
    let cname s = Printf.sprintf "%s/%s" tag s in
    let in_channels =
      match Tensor.Shape.as_feature (B.shape b x) with
      | Some f -> f.Tensor.Shape.channels
      | None -> invalid_arg "mobilenet: non-feature input"
    in
    let hidden = in_channels * expansion in
    let y =
      if expansion = 1 then x
      else B.conv b ~name:(cname "expand") ~kernel:(1, 1) ~out_channels:hidden x
    in
    let y =
      B.conv b ~name:(cname "depthwise") ~kernel:(3, 3) ~stride:(stride, stride)
        ~groups:hidden ~out_channels:hidden y
    in
    let y = B.conv b ~name:(cname "project") ~kernel:(1, 1) ~out_channels y in
    if stride = 1 && in_channels = out_channels then
      B.add b ~name:(cname "sum") [ x; y ]
    else y)

let build () =
  let b = B.create () in
  let x = B.input b ~name:"data" ~channels:3 ~height:224 ~width:224 () in
  let x =
    B.conv b ~name:"stem" ~kernel:(3, 3) ~stride:(2, 2) ~padding:Op.Same
      ~out_channels:32 x
  in
  let x = ref x in
  List.iteri
    (fun si (expansion, out_channels, repeats, first_stride) ->
      for bi = 1 to repeats do
        let tag = Printf.sprintf "bottleneck%d_%d" (si + 1) bi in
        let stride = if bi = 1 then first_stride else 1 in
        x := inverted_residual b ~tag ~expansion ~out_channels ~stride !x
      done)
    stages;
  let x = B.conv b ~name:"head" ~kernel:(1, 1) ~out_channels:1280 !x in
  let x = B.global_pool b ~name:"pool" x in
  let _logits = B.dense b ~name:"classifier" ~out_features:1000 x in
  B.finish b
