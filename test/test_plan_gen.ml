(* Plan pins over seeded generated graphs: every Check.Gen family at two
   sizes and three seeds, planned at a quarter and a sixteenth of the
   SRAM budget with both coloring strategies (and the exact-iterative
   compensation on the small graphs), plus the 1k-node mixed graph of
   `lcmm bench perf`.  Each line of golden/plan_gen.golden is a case key
   and the digest of [Framework.fingerprint]: the planner must keep
   making identical decisions with identical float bits.  A change that
   means to alter decisions ships as a named mode instead (ROADMAP
   conventions); a failure names the first differing case. *)

module Framework = Lcmm.Framework
module Gen = Check.Gen

let golden_file = "golden/plan_gen.golden"

let config = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16

let budget = Accel.Config.sram_budget_bytes config

let option_sets nodes =
  let base = Framework.default_options in
  [ ("min_growth", base);
    ("first_fit", { base with Framework.coloring = Lcmm.Coloring.First_fit }) ]
  @
  if nodes <= 96 then
    [ ("exact", { base with Framework.compensation = Lcmm.Dnnk.Exact_iterative }) ]
  else []

let digest options g =
  Framework.plan ~options config g
  |> Framework.fingerprint |> Dnn_serial.Codec.digest_string

let case_lines () =
  let lines = ref [] in
  let emit key d = lines := Printf.sprintf "%s %s" key d :: !lines in
  List.iter
    (fun family ->
      List.iter
        (fun nodes ->
          List.iter
            (fun seed ->
              let g =
                Gen.sized_graph ~family
                  (Random.State.make [| seed; nodes |])
                  ~nodes
              in
              List.iter
                (fun divisor ->
                  List.iter
                    (fun (name, options) ->
                      let options =
                        { options with
                          Framework.capacity_override = Some (budget / divisor) }
                      in
                      emit
                        (Printf.sprintf "%s/%d/s%d/b%d/%s" (Gen.family_name family)
                           nodes seed divisor name)
                        (digest options g))
                    (option_sets nodes))
                [ 4; 16 ])
            [ 1; 2; 3 ])
        [ 96; 400 ])
    Gen.families;
  (* The graph and budget of bench perf's 1k-node mixed row. *)
  let g =
    Gen.sized_graph ~family:Gen.Mixed (Random.State.make [| 2026; 1024 |])
      ~nodes:1024
  in
  emit "perf/mixed/1024/b4/min_growth"
    (digest
       { Framework.default_options with
         Framework.capacity_override = Some (budget / 4) }
       g);
  List.rev !lines

let test_pinned () =
  let expected = Helpers.read_lines golden_file in
  let actual = case_lines () in
  Alcotest.(check int) "case count" (List.length expected) (List.length actual);
  List.iter2
    (fun e a -> if e <> a then Alcotest.failf "plan changed: want %s, got %s" e a)
    expected actual

let suite = [ Alcotest.test_case "gen plans pinned" `Quick test_pinned ]
