module B = Dnn_graph.Builder
module Op = Dnn_graph.Op

let name = "inception_v3"

let conv b ~name ?(kernel = (1, 1)) ?(stride = (1, 1)) ?(padding = Op.Same) ~out x =
  B.conv b ~name ~kernel ~stride ~padding ~out_channels:out x

let avg_pool_same b ~name x =
  B.pool b ~name ~kind:Op.Avg ~kernel:(3, 3) ~stride:(1, 1) ~padding:(Op.Explicit 1) x

(* 35x35 inception block (BN-A family): pool_proj varies per block. *)
let block_a b tag ~pool_proj x =
  B.with_block b tag (fun () ->
    let cname s = Printf.sprintf "%s/%s" tag s in
    let b1 = conv b ~name:(cname "1x1") ~out:64 x in
    let b2 = conv b ~name:(cname "5x5_r") ~out:48 x in
    let b2 = conv b ~name:(cname "5x5") ~kernel:(5, 5) ~out:64 b2 in
    let b3 = conv b ~name:(cname "d3x3_r") ~out:64 x in
    let b3 = conv b ~name:(cname "d3x3_1") ~kernel:(3, 3) ~out:96 b3 in
    let b3 = conv b ~name:(cname "d3x3_2") ~kernel:(3, 3) ~out:96 b3 in
    let b4 = avg_pool_same b ~name:(cname "pool") x in
    let b4 = conv b ~name:(cname "pool_1x1") ~out:pool_proj b4 in
    B.concat b ~name:(cname "output") [ b1; b2; b3; b4 ])

(* 17x17 inception block with factorized 7x7 convolutions. *)
let block_b b tag ~mid x =
  B.with_block b tag (fun () ->
    let cname s = Printf.sprintf "%s/%s" tag s in
    let b1 = conv b ~name:(cname "1x1") ~out:192 x in
    let b2 = conv b ~name:(cname "7_r") ~out:mid x in
    let b2 = conv b ~name:(cname "7_1x7") ~kernel:(1, 7) ~out:mid b2 in
    let b2 = conv b ~name:(cname "7_7x1") ~kernel:(7, 1) ~out:192 b2 in
    let b3 = conv b ~name:(cname "d7_r") ~out:mid x in
    let b3 = conv b ~name:(cname "d7_7x1a") ~kernel:(7, 1) ~out:mid b3 in
    let b3 = conv b ~name:(cname "d7_1x7a") ~kernel:(1, 7) ~out:mid b3 in
    let b3 = conv b ~name:(cname "d7_7x1b") ~kernel:(7, 1) ~out:mid b3 in
    let b3 = conv b ~name:(cname "d7_1x7b") ~kernel:(1, 7) ~out:192 b3 in
    let b4 = avg_pool_same b ~name:(cname "pool") x in
    let b4 = conv b ~name:(cname "pool_1x1") ~out:192 b4 in
    B.concat b ~name:(cname "output") [ b1; b2; b3; b4 ])

(* 8x8 inception block with expanded (split) filter banks. *)
let block_c b tag x =
  B.with_block b tag (fun () ->
    let cname s = Printf.sprintf "%s/%s" tag s in
    let b1 = conv b ~name:(cname "1x1") ~out:320 x in
    let b2 = conv b ~name:(cname "3_r") ~out:384 x in
    let b2a = conv b ~name:(cname "3_1x3") ~kernel:(1, 3) ~out:384 b2 in
    let b2b = conv b ~name:(cname "3_3x1") ~kernel:(3, 1) ~out:384 b2 in
    let b3 = conv b ~name:(cname "d3_r") ~out:448 x in
    let b3 = conv b ~name:(cname "d3_3x3") ~kernel:(3, 3) ~out:384 b3 in
    let b3a = conv b ~name:(cname "d3_1x3") ~kernel:(1, 3) ~out:384 b3 in
    let b3b = conv b ~name:(cname "d3_3x1") ~kernel:(3, 1) ~out:384 b3 in
    let b4 = avg_pool_same b ~name:(cname "pool") x in
    let b4 = conv b ~name:(cname "pool_1x1") ~out:192 b4 in
    B.concat b ~name:(cname "output") [ b1; b2a; b2b; b3a; b3b; b4 ])

let reduction_a b x =
  B.with_block b "reduction_a3" (fun () ->
    let b1 = conv b ~name:"red_a/3x3" ~kernel:(3, 3) ~stride:(2, 2) ~padding:Op.Valid ~out:384 x in
    let b2 = conv b ~name:"red_a/d_r" ~out:64 x in
    let b2 = conv b ~name:"red_a/d_3x3" ~kernel:(3, 3) ~out:96 b2 in
    let b2 = conv b ~name:"red_a/d_3x3s2" ~kernel:(3, 3) ~stride:(2, 2) ~padding:Op.Valid ~out:96 b2 in
    let b3 = B.pool b ~name:"red_a/pool" ~kernel:(3, 3) ~stride:(2, 2) x in
    B.concat b ~name:"red_a/output" [ b1; b2; b3 ])

let reduction_b b x =
  B.with_block b "reduction_b4" (fun () ->
    let b1 = conv b ~name:"red_b/3_r" ~out:192 x in
    let b1 = conv b ~name:"red_b/3x3" ~kernel:(3, 3) ~stride:(2, 2) ~padding:Op.Valid ~out:320 b1 in
    let b2 = conv b ~name:"red_b/7_r" ~out:192 x in
    let b2 = conv b ~name:"red_b/7_1x7" ~kernel:(1, 7) ~out:192 b2 in
    let b2 = conv b ~name:"red_b/7_7x1" ~kernel:(7, 1) ~out:192 b2 in
    let b2 = conv b ~name:"red_b/7_3x3" ~kernel:(3, 3) ~stride:(2, 2) ~padding:Op.Valid ~out:192 b2 in
    let b3 = B.pool b ~name:"red_b/pool" ~kernel:(3, 3) ~stride:(2, 2) x in
    B.concat b ~name:"red_b/output" [ b1; b2; b3 ])

let build () =
  let b = B.create () in
  let x = B.input b ~name:"data" ~channels:3 ~height:299 ~width:299 () in
  let x = conv b ~name:"stem/conv1" ~kernel:(3, 3) ~stride:(2, 2) ~padding:Op.Valid ~out:32 x in
  let x = conv b ~name:"stem/conv2" ~kernel:(3, 3) ~padding:Op.Valid ~out:32 x in
  let x = conv b ~name:"stem/conv3" ~kernel:(3, 3) ~out:64 x in
  let x = B.pool b ~name:"stem/pool1" ~kernel:(3, 3) ~stride:(2, 2) x in
  let x = conv b ~name:"stem/conv4" ~out:80 x in
  let x = conv b ~name:"stem/conv5" ~kernel:(3, 3) ~padding:Op.Valid ~out:192 x in
  let x = B.pool b ~name:"stem/pool2" ~kernel:(3, 3) ~stride:(2, 2) x in
  let x = block_a b "mixed_a1" ~pool_proj:32 x in
  let x = block_a b "mixed_a2" ~pool_proj:64 x in
  let x = block_a b "mixed_a3" ~pool_proj:64 x in
  let x = reduction_a b x in
  let x = block_b b "mixed_b1" ~mid:128 x in
  let x = block_b b "mixed_b2" ~mid:160 x in
  let x = block_b b "mixed_b3" ~mid:160 x in
  let x = block_b b "mixed_b4" ~mid:192 x in
  let x = reduction_b b x in
  let x = block_c b "mixed_c1" x in
  let x = block_c b "mixed_c2" x in
  let x = B.global_pool b ~name:"global_pool" x in
  let _logits = B.dense b ~name:"classifier" ~out_features:1000 x in
  B.finish b
