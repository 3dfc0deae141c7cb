(* The differential-verification harness itself: generator validity,
   shrinking moves, case persistence and a fast deterministic slice of
   the full runner.  The heavyweight sweep lives in tier 2
   (ci.sh: lcmm check --count 500). *)

module G = Dnn_graph.Graph
module Subgraph = Dnn_graph.Subgraph
module Case = Dnn_serial.Case
module Gen = Check.Gen
module Oracle = Check.Oracle
module Shrink = Check.Shrink
module Runner = Check.Runner

let graph_fingerprint g =
  Dnn_serial.Json.to_string (Dnn_serial.Codec.graph_to_json g)

(* --- generator --- *)

let test_gen_validity_and_determinism () =
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          List.iter
            (fun max_nodes ->
              let gen () =
                Gen.graph ~family
                  (Random.State.make [| seed; max_nodes |])
                  ~max_nodes
              in
              (* Graph.create_exn inside the generator already enforces
                 acyclicity and predecessor validity; pin the size
                 contract and determinism on top. *)
              let g = gen () in
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d: 1 <= %d <= %d"
                   (Gen.family_name family) seed (G.node_count g) max_nodes)
                true
                (G.node_count g >= 1 && G.node_count g <= max_nodes);
              Alcotest.(check string)
                (Printf.sprintf "%s seed %d deterministic"
                   (Gen.family_name family) seed)
                (graph_fingerprint g)
                (graph_fingerprint (gen ())))
            [ 1; 4; 24; 64 ])
        [ 0; 1; 17 ])
    Gen.families

let test_gen_rejects_zero_nodes () =
  Alcotest.check_raises "max_nodes 0"
    (Invalid_argument "Gen.graph: max_nodes < 1") (fun () ->
      ignore (Gen.graph (Random.State.make [| 0 |]) ~max_nodes:0))

(* --- shrinking moves --- *)

let big_graph () =
  Gen.graph ~family:Gen.Mixed (Random.State.make [| 5; 3 |]) ~max_nodes:40

let test_subgraph_prefix () =
  let g = big_graph () in
  let n = G.node_count g in
  List.iter
    (fun k ->
      let p = Subgraph.prefix g k in
      Alcotest.(check int) (Printf.sprintf "prefix %d size" k) k (G.node_count p);
      (* The kept nodes are untouched. *)
      List.iter
        (fun node ->
          let orig = G.node g node.G.id in
          Alcotest.(check bool)
            (Printf.sprintf "node %d preserved" node.G.id)
            true
            (node.G.op = orig.G.op && node.G.preds = orig.G.preds))
        (G.nodes p))
    [ 1; 2; n / 2; n ];
  Alcotest.check_raises "prefix 0"
    (Invalid_argument (Printf.sprintf "Subgraph.prefix: 0 outside [1,%d]" n))
    (fun () -> ignore (Subgraph.prefix g 0))

let test_subgraph_drop_sink () =
  let g = big_graph () in
  let sinks = Subgraph.sinks g in
  Alcotest.(check bool) "at least one sink" true (sinks <> []);
  List.iter
    (fun id ->
      match Subgraph.drop_sink g id with
      | None -> Alcotest.failf "sink %d refused" id
      | Some g' ->
        Alcotest.(check int) "one node fewer" (G.node_count g - 1)
          (G.node_count g');
        (* Renumbered ids must stay a valid topological order; building
           the fingerprint forces Codec to walk the whole graph. *)
        ignore (graph_fingerprint g'))
    sinks;
  (* Non-sinks are refused. *)
  let non_sink =
    List.find (fun node -> G.succs g node.G.id <> []) (G.nodes g)
  in
  Alcotest.(check bool) "non-sink refused" true
    (Subgraph.drop_sink g non_sink.G.id = None)

let test_shrink_minimizes () =
  (* A synthetic monotone failure: any graph with >= 5 nodes "fails".
     The shrinker must come back with exactly 5. *)
  let g = big_graph () in
  let shrunk = Shrink.shrink ~fails:(fun g -> G.node_count g >= 5) g in
  Alcotest.(check int) "locally minimal" 5 (G.node_count shrunk)

(* --- case persistence --- *)

let test_case_roundtrip () =
  let case =
    { Case.seed = 42;
      case_index = 7;
      oracle = "dnnk-vs-exact";
      message = "it broke";
      dtype = Tensor.Dtype.I8;
      capacity_fraction = 0.25;
      graph = big_graph () }
  in
  let path = Filename.temp_file "lcmm_case" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Case.write_file ~path case;
      match Case.read_file ~path with
      | Error msg -> Alcotest.failf "read back: %s" msg
      | Ok case' ->
        Alcotest.(check int) "seed" case.Case.seed case'.Case.seed;
        Alcotest.(check int) "index" case.Case.case_index case'.Case.case_index;
        Alcotest.(check string) "oracle" case.Case.oracle case'.Case.oracle;
        Alcotest.(check string) "message" case.Case.message case'.Case.message;
        Alcotest.(check bool) "dtype" true (case.Case.dtype = case'.Case.dtype);
        Alcotest.(check (float 0.)) "fraction" case.Case.capacity_fraction
          case'.Case.capacity_fraction;
        Alcotest.(check string) "graph" (graph_fingerprint case.Case.graph)
          (graph_fingerprint case'.Case.graph))

let test_case_rejects_garbage () =
  let path = Filename.temp_file "lcmm_case" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "{\"format\":\"wrong\"}");
      match Case.read_file ~path with
      | Ok _ -> Alcotest.fail "accepted a wrong format"
      | Error _ -> ());
  match Case.read_file ~path:"/nonexistent/case.json" with
  | Ok _ -> Alcotest.fail "read a nonexistent file"
  | Error _ -> ()

(* --- oracles and the runner --- *)

let test_oracle_names_unique () =
  let names = List.sort_uniq compare Oracle.names in
  Alcotest.(check int) "unique names" (List.length Oracle.all)
    (List.length names);
  List.iter
    (fun name ->
      match Oracle.find name with
      | Some o -> Alcotest.(check string) "find round-trips" name o.Oracle.name
      | None -> Alcotest.failf "oracle %s not found" name)
    Oracle.names

let test_oracles_hold_on_fixtures () =
  (* Every handcrafted fixture must satisfy every invariant, under both
     loose and tight capacity. *)
  List.iter
    (fun g ->
      List.iter
        (fun capacity_fraction ->
          let ctx = Oracle.make_ctx ~capacity_fraction g in
          match Oracle.check_all ctx with
          | [] -> ()
          | (oracle, msg) :: _ ->
            Alcotest.failf "fraction %.2f: %s: %s" capacity_fraction oracle msg)
        [ 0.; 0.5; 1.5 ])
    [ Helpers.chain (); Helpers.diamond (); Helpers.inception_snippet () ]

let test_runner_fast_slice () =
  (* A small deterministic slice of what ci.sh runs at scale. *)
  let outcome = Runner.run ~seed:42 ~count:6 ~max_nodes:24 () in
  Alcotest.(check int) "cases" 6 outcome.Runner.cases;
  Alcotest.(check int) "oracle runs" (6 * List.length Oracle.all)
    outcome.Runner.oracle_runs;
  List.iter
    (fun f ->
      Alcotest.failf "case %d: %s: %s" f.Runner.case_index f.Runner.oracle
        f.Runner.message)
    outcome.Runner.failures

let test_runner_replay () =
  (* Persist a case by hand and replay it; a healthy pipeline reports no
     failures, and the case's own oracle is always part of the replay. *)
  let case =
    { Case.seed = 1;
      case_index = 0;
      oracle = "liveness";
      message = "(saved by hand)";
      dtype = Tensor.Dtype.I16;
      capacity_fraction = 0.5;
      graph = Helpers.diamond () }
  in
  let path = Filename.temp_file "lcmm_replay" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Case.write_file ~path case;
      (match Runner.replay ~path () with
      | Error msg -> Alcotest.failf "replay: %s" msg
      | Ok outcome ->
        Alcotest.(check int) "one case" 1 outcome.Runner.cases;
        Alcotest.(check (list (pair string string))) "no failures" []
          (List.map (fun f -> (f.Runner.oracle, f.Runner.message))
             outcome.Runner.failures));
      (* Narrowing to another oracle still replays the case's own. *)
      match
        Runner.replay
          ~oracles:[ Option.get (Oracle.find "coloring") ]
          ~path ()
      with
      | Error msg -> Alcotest.failf "narrowed replay: %s" msg
      | Ok outcome ->
        Alcotest.(check int) "coloring + liveness" 2 outcome.Runner.oracle_runs);
  match Runner.replay ~path:"/nonexistent/case.json" () with
  | Ok _ -> Alcotest.fail "replayed a nonexistent file"
  | Error _ -> ()

let suite =
  [ Alcotest.test_case "gen validity and determinism" `Quick
      test_gen_validity_and_determinism;
    Alcotest.test_case "gen rejects zero nodes" `Quick test_gen_rejects_zero_nodes;
    Alcotest.test_case "subgraph prefix" `Quick test_subgraph_prefix;
    Alcotest.test_case "subgraph drop sink" `Quick test_subgraph_drop_sink;
    Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
    Alcotest.test_case "case round-trip" `Quick test_case_roundtrip;
    Alcotest.test_case "case rejects garbage" `Quick test_case_rejects_garbage;
    Alcotest.test_case "oracle names unique" `Quick test_oracle_names_unique;
    Alcotest.test_case "oracles hold on fixtures" `Quick
      test_oracles_hold_on_fixtures;
    Alcotest.test_case "runner fast slice" `Quick test_runner_fast_slice;
    Alcotest.test_case "runner replay" `Quick test_runner_replay ]
