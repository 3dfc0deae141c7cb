module G = Dnn_graph.Graph
module Case = Dnn_serial.Case

let log_src = Logs.Src.create "lcmm.check" ~doc:"Differential verification harness"

module Log = (val Logs.src_log log_src : Logs.LOG)

type failure = {
  case_index : int;
  family : string;
  oracle : string;
  message : string;
  original_nodes : int;
  shrunk_nodes : int;
  case : Case.t;
  saved_path : string option;
}

type outcome = {
  cases : int;
  oracle_runs : int;
  failures : failure list;
}

let default_max_nodes = 64

let dtype_choices = [| Tensor.Dtype.I16; Tensor.Dtype.I16; Tensor.Dtype.I8; Tensor.Dtype.F32 |]

(* Capacity pressure relative to the total buffer footprint: the corners
   (nothing fits, everything fits) plus contested middles. *)
let fraction_choices = [| 0.; 0.25; 0.5; 0.75; 1.5 |]

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Runner: %s exists and is not a directory" dir)

let oracle_fails (o : Oracle.t) ~dtype ~capacity_fraction g =
  match o.Oracle.check (Oracle.make_ctx ~dtype ~capacity_fraction g) with
  | Ok () -> false
  | Error _ -> true
  | exception _ -> true

let oracle_message (o : Oracle.t) ~dtype ~capacity_fraction g =
  match o.Oracle.check (Oracle.make_ctx ~dtype ~capacity_fraction g) with
  | Ok () -> "(not reproducible on the shrunk graph)"
  | Error msg -> msg
  | exception e -> "raised " ^ Printexc.to_string e

let run ?(oracles = Oracle.all) ?save_dir ?(max_nodes = default_max_nodes)
    ~seed ~count () =
  if count < 0 then invalid_arg "Runner.run: negative count";
  if max_nodes < 1 then invalid_arg "Runner.run: max_nodes < 1";
  Option.iter ensure_dir save_dir;
  let failures = ref [] in
  for index = 0 to count - 1 do
    let st = Random.State.make [| seed; index; 0x1c44 |] in
    let family = List.nth Gen.families (Random.State.int st (List.length Gen.families)) in
    let nodes = 1 + Random.State.int st max_nodes in
    let g = Gen.graph ~family st ~max_nodes:nodes in
    let dtype = dtype_choices.(Random.State.int st (Array.length dtype_choices)) in
    let capacity_fraction =
      fraction_choices.(Random.State.int st (Array.length fraction_choices))
    in
    let ctx = Oracle.make_ctx ~dtype ~capacity_fraction g in
    let failed = Oracle.check_all ~oracles ctx in
    List.iter
      (fun (oracle_name, message) ->
        Log.info (fun m ->
            m "case %d (%s, %d nodes): oracle %s failed: %s" index
              (Gen.family_name family) (G.node_count g) oracle_name message);
        let o = Option.get (Oracle.find oracle_name) in
        let shrunk =
          Shrink.shrink ~fails:(oracle_fails o ~dtype ~capacity_fraction) g
        in
        let message =
          if G.node_count shrunk = G.node_count g then message
          else oracle_message o ~dtype ~capacity_fraction shrunk
        in
        let case =
          { Case.seed;
            case_index = index;
            oracle = oracle_name;
            message;
            dtype;
            capacity_fraction;
            graph = shrunk }
        in
        let saved_path =
          Option.map
            (fun dir ->
              let path =
                Filename.concat dir
                  (Printf.sprintf "case-%d-%d-%s.json" seed index oracle_name)
              in
              Case.write_file ~path case;
              path)
            save_dir
        in
        failures :=
          { case_index = index;
            family = Gen.family_name family;
            oracle = oracle_name;
            message;
            original_nodes = G.node_count g;
            shrunk_nodes = G.node_count shrunk;
            case;
            saved_path }
          :: !failures)
      failed
  done;
  { cases = count;
    oracle_runs = count * List.length oracles;
    failures = List.rev !failures }

let replay ?(oracles = Oracle.all) ~path () =
  match Case.read_file ~path with
  | Error msg -> Error msg
  | Ok case ->
    let oracles =
      if List.exists (fun o -> o.Oracle.name = case.Case.oracle) oracles then oracles
      else
        match Oracle.find case.Case.oracle with
        | Some o -> o :: oracles
        | None -> oracles
    in
    let ctx =
      Oracle.make_ctx ~dtype:case.Case.dtype
        ~capacity_fraction:case.Case.capacity_fraction case.Case.graph
    in
    let failed = Oracle.check_all ~oracles ctx in
    let failures =
      List.map
        (fun (oracle, message) ->
          { case_index = case.Case.case_index;
            family = "replay";
            oracle;
            message;
            original_nodes = G.node_count case.Case.graph;
            shrunk_nodes = G.node_count case.Case.graph;
            case = { case with Case.oracle; message };
            saved_path = None })
        failed
    in
    Ok { cases = 1; oracle_runs = List.length oracles; failures }
