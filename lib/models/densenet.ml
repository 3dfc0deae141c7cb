module B = Dnn_graph.Builder
module Op = Dnn_graph.Op

let name = "densenet121"

let growth = 32

let block_layers = [ 6; 12; 24; 16 ]

(* One dense layer: 1x1 bottleneck to 4*growth channels then 3x3 down to
   [growth]; batch norm and ReLU fold into the convolutions. *)
let dense_layer b ~cname x =
  let y = B.conv b ~name:(cname "1x1") ~kernel:(1, 1) ~out_channels:(4 * growth) x in
  B.conv b ~name:(cname "3x3") ~kernel:(3, 3) ~out_channels:growth y

(* A dense block: each layer reads the concatenation of the block input
   and every earlier layer's output; the block result concatenates all of
   them.  The per-layer concats are transparent (no data movement), but
   they stretch every contributing value's lifespan to the block end. *)
let dense_block b ~tag ~layers x =
  B.with_block b tag (fun () ->
    let contributions = ref [ x ] in
    for li = 1 to layers do
      let cname s = Printf.sprintf "%s/l%d_%s" tag li s in
      let input =
        match !contributions with
        | [ only ] -> only
        | several -> B.concat b ~name:(cname "cat") (List.rev several)
      in
      let fresh = dense_layer b ~cname input in
      contributions := fresh :: !contributions
    done;
    B.concat b ~name:(tag ^ "/output") (List.rev !contributions))

(* Transition: 1x1 halving the channels, then 2x2 average pooling. *)
let transition b ~tag x =
  let channels =
    match Tensor.Shape.as_feature (B.shape b x) with
    | Some f -> f.Tensor.Shape.channels
    | None -> invalid_arg "densenet: non-feature input"
  in
  let y = B.conv b ~name:(tag ^ "/conv") ~kernel:(1, 1) ~out_channels:(channels / 2) x in
  B.pool b ~name:(tag ^ "/pool") ~kind:Op.Avg ~kernel:(2, 2) ~stride:(2, 2) y

let build () =
  let b = B.create () in
  let x = B.input b ~name:"data" ~channels:3 ~height:224 ~width:224 () in
  let x =
    B.conv b ~name:"stem" ~kernel:(7, 7) ~stride:(2, 2) ~padding:(Op.Explicit 3)
      ~out_channels:(2 * growth) x
  in
  let x = B.pool b ~name:"stem_pool" ~kernel:(3, 3) ~stride:(2, 2) ~padding:Op.Same x in
  let n_blocks = List.length block_layers in
  let x = ref x in
  List.iteri
    (fun i layers ->
      let tag = Printf.sprintf "dense%d" (i + 1) in
      x := dense_block b ~tag ~layers !x;
      if i < n_blocks - 1 then
        x := transition b ~tag:(Printf.sprintf "transition%d" (i + 1)) !x)
    block_layers;
  let x = B.global_pool b ~name:"pool" !x in
  let _logits = B.dense b ~name:"classifier" ~out_features:1000 x in
  B.finish b
