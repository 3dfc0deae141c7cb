(* Shared fixtures and QCheck generators for the test suite. *)

module B = Dnn_graph.Builder
module Op = Dnn_graph.Op
module G = Dnn_graph.Graph

let default_config ?(style = Accel.Config.Lcmm) ?(dtype = Tensor.Dtype.I16) () =
  Accel.Config.make ~style dtype

(* [Conv] with stride (1,1), [Same] padding and one group by default. *)
let conv_op ?(stride = (1, 1)) ?(padding = Op.Same) ?(groups = 1) ~out_channels
    ~kernel () =
  Op.Conv { out_channels; kernel; stride; padding; groups }

let find_by_name g name = List.find_opt (fun n -> n.G.node_name = name) (G.nodes g)

(* A linear 3-conv chain. *)
let chain () =
  let b = B.create () in
  let x = B.input b ~name:"in" ~channels:16 ~height:32 ~width:32 () in
  let c1 = B.conv b ~name:"c1" ~kernel:(3, 3) ~out_channels:32 x in
  let c2 = B.conv b ~name:"c2" ~kernel:(3, 3) ~out_channels:32 c1 in
  let _c3 = B.conv b ~name:"c3" ~kernel:(1, 1) ~out_channels:64 c2 in
  B.finish b

(* A residual diamond: input -> (proj | body) -> add -> conv. *)
let diamond () =
  let b = B.create () in
  let x = B.input b ~name:"in" ~channels:32 ~height:16 ~width:16 () in
  let proj = B.conv b ~name:"proj" ~kernel:(1, 1) ~out_channels:64 x in
  let body1 = B.conv b ~name:"body1" ~kernel:(3, 3) ~out_channels:64 x in
  let body2 = B.conv b ~name:"body2" ~kernel:(3, 3) ~out_channels:64 body1 in
  let sum = B.add b ~name:"sum" [ proj; body2 ] in
  let _out = B.conv b ~name:"out" ~kernel:(1, 1) ~out_channels:32 sum in
  B.finish b

(* The paper's Fig. 3 snippet: six convolutions with a concat. *)
let inception_snippet () =
  let b = B.create () in
  let x = B.input b ~name:"in" ~channels:256 ~height:8 ~width:8 () in
  let c1 = B.conv b ~name:"C1" ~kernel:(1, 1) ~out_channels:64 x in
  let c2 = B.conv b ~name:"C2" ~kernel:(1, 1) ~out_channels:96 x in
  let c3 = B.conv b ~name:"C3" ~kernel:(3, 3) ~out_channels:128 c2 in
  let c4 = B.conv b ~name:"C4" ~kernel:(1, 1) ~out_channels:96 x in
  let c5 = B.conv b ~name:"C5" ~kernel:(3, 3) ~out_channels:128 c4 in
  let cat = B.concat b ~name:"cat" [ c1; c3; c5 ] in
  let _c6 = B.conv b ~name:"C6" ~kernel:(1, 1) ~out_channels:256 cat in
  B.finish b

let metric_of ?style ?dtype g =
  let cfg = default_config ?style ?dtype () in
  (cfg, Lcmm.Metric.build g (Accel.Latency.profile_graph cfg g))

(* Random layered DAG generator: channels kept small so sizes stay sane.
   Returns a valid graph with n conv/pool/add nodes after the input. *)
let random_graph_gen =
  let open QCheck2.Gen in
  let* n = int_range 3 14 in
  let* seeds = list_repeat n (pair (int_range 0 2) (int_range 1 4)) in
  return
    (let b = B.create () in
     let x = B.input b ~channels:8 ~height:16 ~width:16 () in
     let values = ref [ x ] in
     List.iteri
       (fun i (kind, chan_mult) ->
         let pick k = List.nth !values (k mod List.length !values) in
         let v =
           match kind with
           | 0 ->
             B.conv b
               ~name:(Printf.sprintf "conv%d" i)
               ~kernel:(3, 3) ~out_channels:(8 * chan_mult) (pick i)
           | 1 ->
             B.conv b
               ~name:(Printf.sprintf "pw%d" i)
               ~kernel:(1, 1) ~out_channels:(8 * chan_mult) (pick (i * 7))
           | _ ->
             (* Eltwise add needs same shapes: add a value to itself via two
                1x1 convs of equal width. *)
             let src = pick (i * 3) in
             let a =
               B.conv b ~name:(Printf.sprintf "a%d" i) ~kernel:(1, 1)
                 ~out_channels:16 src
             in
             let c =
               B.conv b ~name:(Printf.sprintf "b%d" i) ~kernel:(1, 1)
                 ~out_channels:16 src
             in
             B.add b ~name:(Printf.sprintf "add%d" i) [ a; c ]
         in
         values := v :: !values)
       seeds;
     B.finish b)

(* An abstract DNNK problem: intervals and sizes without a real graph. *)
let interval_gen =
  let open QCheck2.Gen in
  let* a = int_range 0 30 in
  let* len = int_range 0 8 in
  return (Lcmm.Liveness.make ~start_pos:a ~end_pos:(a + len))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The non-empty lines of a golden file. *)
let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
