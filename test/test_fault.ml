(* The fault-injection subsystem: the spec grammar, the counter-based
   deterministic derivation, degraded-mode replanning after SRAM bank
   loss, retry/abort accounting, and — load-bearing — that an inactive
   fault spec reproduces the fault-free runtime bit for bit. *)

module Rt = Lcmm_runtime
module F = Lcmm.Framework
module Spec = Fault.Spec
module Inj = Fault.Injector
module Json = Dnn_serial.Json

let ok_spec s =
  match Spec.of_string s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "spec %S failed to parse: %s" s msg

let render report = Json.to_string (Rt.Report.to_json report)

let pretty report = Format.asprintf "%a" Rt.Report.pp report

let replicas model n =
  let g = Models.Zoo.build model in
  List.init n (fun k ->
      { Rt.Runtime.name = Printf.sprintf "%s#%d" model k;
        model;
        graph = g;
        priority = 0;
        arrival = 0. })

let mix l = List.concat_map (fun (m, n) -> replicas m n) l

let run_with ?faults specs =
  Rt.Runtime.run { Rt.Runtime.default_options with faults } specs

(* --- the spec grammar --- *)

let test_roundtrip () =
  List.iter
    (fun s ->
      let spec = ok_spec s in
      let canon = Spec.to_string spec in
      let reparsed = ok_spec canon in
      Alcotest.(check string) (Printf.sprintf "%S round-trips" s) canon
        (Spec.to_string reparsed);
      Alcotest.(check bool)
        (Printf.sprintf "%S reparses equal" s)
        true (spec = reparsed))
    [ "";
      "seed=42";
      "stall:0.1:0.25";
      "fail:0.02";
      "bankloss@1:4m";
      "seed=7,droop@2:3:0.5,stall:0.05:0.2,fail:0.01,retries=5,\
       backoff=0.1:4,bankloss@4:256k:1,abort@9:2" ]

let test_byte_suffixes () =
  let spec = ok_spec "bankloss@1:256k,bankloss@2:4m,bankloss@3:123" in
  Alcotest.(check (list int))
    "k/m suffixes"
    [ 256 * 1024; 4 * 1024 * 1024; 123 ]
    (List.map (fun b -> b.Spec.loss_bytes) spec.Spec.bank_losses)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Spec.of_string s with
      | Ok _ -> Alcotest.failf "spec %S should not parse" s
      | Error _ -> ())
    [ "nonsense"; "stall:1.5:1"; "fail:-0.1"; "droop@1:0:0.5";
      "droop@1:2:0"; "droop@1:2:1.5"; "bankloss@1:xyz"; "retries=-1";
      "abort@1"; "seed="; "backoff=2:1"; "stall:0.1:-3" ]

let test_is_empty () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "has_board_faults %S" s)
        expect
        (Spec.has_board_faults (ok_spec s)))
    [ ("", false); ("seed=42", false); ("retries=5,backoff=0.1:4", false);
      ("stall:0.1:0.2", true); ("fail:0.01", true);
      ("droop@1:2:0.5", true); ("bankloss@1:4k", true);
      ("abort@1:0", true) ]

(* --- deterministic derivation --- *)

let test_injector_determinism () =
  let spec = ok_spec "seed=42,stall:0.5:0.2,fail:0.3" in
  let a = Inj.create spec in
  let b = Inj.create spec in
  let keys = List.init 200 Fun.id in
  (* Query [b] in reverse order: outcomes are a pure function of the
     key, never of the query order. *)
  let sa = List.map (fun k -> Inj.stall_seconds a ~key:k) keys in
  let sb =
    List.rev (List.map (fun k -> Inj.stall_seconds b ~key:k) (List.rev keys))
  in
  Alcotest.(check bool) "stalls replay" true (sa = sb);
  let fa = List.map (fun k -> Inj.planned_failures a ~key:k) keys in
  let fb =
    List.rev
      (List.rev_map (fun k -> Inj.planned_failures b ~key:k) keys)
  in
  Alcotest.(check (list int)) "failures replay" fa fb;
  let ba = List.map (fun k -> Inj.backoff_seconds a ~key:k ~attempt:1) keys in
  let bb = List.map (fun k -> Inj.backoff_seconds b ~key:k ~attempt:1) keys in
  Alcotest.(check bool) "backoffs replay" true (ba = bb);
  (* A different seed must actually change outcomes somewhere. *)
  let other = Inj.create { spec with Spec.seed = 43 } in
  let so = List.map (fun k -> Inj.stall_seconds other ~key:k) keys in
  Alcotest.(check bool) "seed matters" true (sa <> so)

let test_injector_bounds () =
  let spec = ok_spec "seed=1,stall:1:0.2,fail:1,retries=2,backoff=0.1:0.4" in
  let inj = Inj.create spec in
  Alcotest.(check int) "retry budget" 2 (Inj.max_retries inj);
  List.iter
    (fun key ->
      (* stall:1 always fires; jitter keeps it at 0.5-1.5x the mean. *)
      let s = Inj.stall_seconds inj ~key in
      Alcotest.(check bool)
        (Printf.sprintf "stall %d in band" key)
        true
        (s >= 0.5 *. 2e-4 && s <= 1.5 *. 2e-4);
      (* fail:1 always exhausts the budget: retries + the final attempt. *)
      Alcotest.(check int)
        (Printf.sprintf "failures %d capped" key)
        3 (Inj.planned_failures inj ~key);
      (* Capped exponential backoff, jittered to 1-2x nominal. *)
      List.iter
        (fun attempt ->
          let nominal = Float.min 4e-4 (1e-4 *. (2. ** float_of_int attempt)) in
          let b = Inj.backoff_seconds inj ~key ~attempt in
          Alcotest.(check bool)
            (Printf.sprintf "backoff %d/%d in band" key attempt)
            true
            (b >= nominal && b <= 2. *. nominal))
        [ 0; 1; 2; 5 ])
    [ 0; 1; 2; 17; 1234 ]

let test_droop_windows () =
  let inj = Inj.create (ok_spec "droop@1:2:0.5,droop@2:2:0.8") in
  let at now = Inj.droop_factor inj ~now in
  Alcotest.(check (float 0.)) "before" 1. (at 0.0005);
  Alcotest.(check (float 0.)) "first window" 0.5 (at 0.0015);
  Alcotest.(check (float 0.)) "overlap takes the min" 0.5 (at 0.0025);
  Alcotest.(check (float 0.)) "second window" 0.8 (at 0.0035);
  Alcotest.(check (float 0.)) "after" 1. (at 0.0045);
  Alcotest.(check (float 0.)) "next boundary" 0.001
    (Inj.next_droop_boundary inj ~now:0.);
  Alcotest.(check bool) "boundaries exhausted" true
    (Inj.next_droop_boundary inj ~now:1. = infinity)

(* --- eviction by reverse benefit-density --- *)

let alexnet_allocation =
  lazy
    (let g = Models.Zoo.build "alexnet" in
     let dse =
       Accel.Dse.run ~device:Fpga.Device.vu9p ~style:Accel.Config.Lcmm
         Tensor.Dtype.I16 g
     in
     let plan = F.plan dse.Accel.Dse.config g in
     (plan.F.metric, plan.F.allocation))

let vbuf_ids vbufs =
  List.sort_uniq compare (List.map (fun vb -> vb.Lcmm.Vbuffer.vbuf_id) vbufs)

let test_evict_to_capacity () =
  let metric, base = Lazy.force alexnet_allocation in
  Alcotest.(check bool) "fixture pins something" true (base.Lcmm.Dnnk.chosen <> []);
  let base_bytes = base.Lcmm.Dnnk.capacity_blocks * Lcmm.Dnnk.block_bytes in
  let half = base_bytes / 2 in
  let post, evicted = Lcmm.Dnnk.evict_to_capacity metric ~capacity_bytes:half base in
  Alcotest.(check bool) "fits the surviving capacity" true
    (post.Lcmm.Dnnk.used_blocks <= post.Lcmm.Dnnk.capacity_blocks);
  Alcotest.(check (list int))
    "survivors + evicted partition the chosen set"
    (vbuf_ids base.Lcmm.Dnnk.chosen)
    (List.sort_uniq compare (vbuf_ids post.Lcmm.Dnnk.chosen @ vbuf_ids evicted));
  Alcotest.(check bool) "eviction only slows the plan" true
    (post.Lcmm.Dnnk.predicted_latency
     >= base.Lcmm.Dnnk.predicted_latency -. 1e-12);
  (* Losing everything evicts everything. *)
  let all_gone, evicted_all =
    Lcmm.Dnnk.evict_to_capacity metric ~capacity_bytes:0 base
  in
  Alcotest.(check (list int)) "capacity 0 evicts all" (vbuf_ids base.Lcmm.Dnnk.chosen)
    (vbuf_ids evicted_all);
  Alcotest.(check int) "capacity 0 pins nothing" 0 all_gone.Lcmm.Dnnk.used_blocks;
  (* A capacity the allocation already fits is the identity. *)
  let same, none =
    Lcmm.Dnnk.evict_to_capacity metric ~capacity_bytes:base_bytes base
  in
  Alcotest.(check (list int)) "no-op keeps the chosen set"
    (vbuf_ids base.Lcmm.Dnnk.chosen) (vbuf_ids same.Lcmm.Dnnk.chosen);
  Alcotest.(check int) "no-op evicts nothing" 0 (List.length none)

(* --- the runtime under faults --- *)

(* The all-quiet spec must be normalised away: report JSON and pretty
   rendering bit-identical to the fault-free engine, across the zoo. *)
let test_empty_spec_bit_exact () =
  List.iter
    (fun model ->
      let specs = replicas model 1 in
      let plain = run_with specs in
      let quiet = run_with ~faults:(ok_spec "seed=42") specs in
      Alcotest.(check string) (model ^ " json identical") (render plain)
        (render quiet);
      Alcotest.(check string) (model ^ " pp identical") (pretty plain)
        (pretty quiet))
    [ "alexnet"; "squeezenet"; "googlenet" ]

let faulty_spec = "seed=42,stall:0.1:0.3,fail:0.05,droop@2:5:0.5,bankloss@3:4m"

let test_seeded_replay () =
  let specs = mix [ ("alexnet", 2); ("squeezenet", 1) ] in
  let a = run_with ~faults:(ok_spec faulty_spec) specs in
  let b = run_with ~faults:(ok_spec faulty_spec) specs in
  Alcotest.(check string) "same seed, same report" (render a) (render b)

let test_bank_loss_degrades () =
  let specs = mix [ ("alexnet", 2); ("squeezenet", 1) ] in
  let report = run_with ~faults:(ok_spec "seed=9,bankloss@3:4m") specs in
  (* Every tenant still completes: a bank loss degrades, never kills. *)
  List.iter
    (fun (t : Rt.Report.tenant_report) ->
      Alcotest.(check bool)
        (t.Rt.Report.name ^ " admitted")
        true
        (t.Rt.Report.status = Rt.Report.Admitted);
      Alcotest.(check bool)
        (t.Rt.Report.name ^ " finished")
        true (t.Rt.Report.finish_ms > 0.))
    report.Rt.Report.tenants;
  let degraded =
    List.filter
      (fun (t : Rt.Report.tenant_report) ->
        t.Rt.Report.faults.Rt.Engine.degraded > 0)
      report.Rt.Report.tenants
  in
  Alcotest.(check int) "exactly one tenant degraded" 1 (List.length degraded);
  List.iter
    (fun (t : Rt.Report.tenant_report) ->
      let f = t.Rt.Report.faults in
      match f.Rt.Engine.pinned_after, f.Rt.Engine.surviving_bytes with
      | Some pinned, Some surviving ->
        Alcotest.(check bool)
          (t.Rt.Report.name ^ " post-eviction pinning fits what survives")
          true (pinned <= surviving);
        Alcotest.(check int)
          (t.Rt.Report.name ^ " report uses the degraded pinning")
          pinned t.Rt.Report.sram_used_bytes
      | _ -> Alcotest.fail "degraded tenant lacks pinning accounting")
    degraded

let test_retry_exhaustion_aborts () =
  let specs = replicas "alexnet" 1 in
  let report = run_with ~faults:(ok_spec "seed=5,fail:1,retries=2") specs in
  match report.Rt.Report.tenants with
  | [ t ] -> (
    match t.Rt.Report.status with
    | Rt.Report.Aborted reason ->
      Alcotest.(check bool) "reason mentions retries" true
        (String.length reason > 0);
      Alcotest.(check bool) "retries were burned" true
        (t.Rt.Report.faults.Rt.Engine.retries > 0)
    | _ -> Alcotest.fail "always-failing transfers must abort the tenant")
  | _ -> Alcotest.fail "expected one tenant"

let test_abort_event () =
  let specs = replicas "alexnet" 1 in
  let report = run_with ~faults:(ok_spec "abort@1:0") specs in
  match report.Rt.Report.tenants with
  | [ t ] ->
    Alcotest.(check bool) "injected abort lands" true
      (match t.Rt.Report.status with Rt.Report.Aborted _ -> true | _ -> false)
  | _ -> Alcotest.fail "expected one tenant"

let test_droop_slows () =
  let specs = replicas "alexnet" 1 in
  let plain = run_with specs in
  let drooped = run_with ~faults:(ok_spec "droop@0:1000:0.5") specs in
  Alcotest.(check bool) "halved bandwidth slows the run" true
    (drooped.Rt.Report.makespan_ms > plain.Rt.Report.makespan_ms)

(* --- transport faults --- *)

let test_transport_roundtrip () =
  List.iter
    (fun s ->
      let spec = ok_spec s in
      let canon = Spec.to_string spec in
      Alcotest.(check bool)
        (Printf.sprintf "%S has transport faults" s)
        true
        (Spec.has_transport_faults spec);
      Alcotest.(check bool)
        (Printf.sprintf "%S stays board-fault free" s)
        false (Spec.has_board_faults spec);
      Alcotest.(check string)
        (Printf.sprintf "%S round-trips" s)
        canon
        (Spec.to_string (ok_spec canon)))
    [ "delay:0.1:40";
      "hang:0.02";
      "trunc:0.05";
      "corrupt:0.01";
      "reset:0.03";
      "slowshard@2:3.5";
      "seed=9,delay:0.08:40,hang:0.02,trunc:0.02,corrupt:0.02,reset:0.03,\
       slowshard@0:2" ]

let test_spec_positional_errors () =
  let expect_error s fragments =
    match Spec.of_string s with
    | Ok _ -> Alcotest.failf "spec %S unexpectedly parsed" s
    | Error msg ->
      List.iter
        (fun frag ->
          let contains =
            let flen = String.length frag and mlen = String.length msg in
            let rec scan i =
              i + flen <= mlen
              && (String.sub msg i flen = frag || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "error for %S mentions %S: %s" s frag msg)
            true contains)
        fragments
  in
  (* The error names the clause by (1-based) index, text and character
     offset into the original spec string. *)
  expect_error "seed=1,bogus:0.5" [ "clause 2"; "bogus:0.5"; "at char 7" ];
  expect_error "delay:0.1" [ "clause 1"; "delay" ];
  expect_error "seed=1,hang:2.0" [ "clause 2"; "hang" ];
  expect_error "slowshard@0:0.5" [ "clause 1"; "slowshard" ];
  (* Empty clauses (stray or trailing commas) are tolerated, not errors,
     and do not advance the clause numbering. *)
  Alcotest.(check string) "empty clauses skipped"
    (Spec.to_string (ok_spec "seed=1,reset:0.1"))
    (Spec.to_string (ok_spec "seed=1,,reset:0.1,"))

let test_scale_transport () =
  let spec = ok_spec "delay:0.4:40,reset:0.6" in
  let doubled = Spec.scale_transport spec 2. in
  Alcotest.(check (float 1e-9)) "delay prob scaled" 0.8
    doubled.Spec.t_delay_prob;
  Alcotest.(check (float 1e-9)) "reset prob clamped to 1" 1.0
    doubled.Spec.t_reset_prob;
  Alcotest.(check (float 1e-9)) "magnitude untouched" 0.04
    doubled.Spec.t_delay_seconds;
  let halved = Spec.scale_transport spec 0.5 in
  Alcotest.(check (float 1e-9)) "halved" 0.2 halved.Spec.t_delay_prob

let test_transport_action_determinism () =
  let inj = Inj.create (ok_spec "seed=5,delay:0.2:10,reset:0.1,trunc:0.1") in
  for key = 0 to 50 do
    for attempt = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "key %d attempt %d replays" key attempt)
        true
        (Inj.transport_action inj ~key ~attempt
        = Inj.transport_action inj ~key ~attempt)
    done
  done;
  (* A quiet spec never injects. *)
  let quiet = Inj.create (ok_spec "seed=5") in
  for key = 0 to 50 do
    Alcotest.(check bool) "quiet spec passes" true
      (Inj.transport_action quiet ~key ~attempt:0 = Inj.Pass)
  done;
  (* Certain faults always fire, with reset outranking delay. *)
  let certain = Inj.create (ok_spec "seed=5,delay:1.0:10,reset:1.0") in
  for key = 0 to 20 do
    Alcotest.(check bool) "reset wins precedence" true
      (Inj.transport_action certain ~key ~attempt:0 = Inj.Reset)
  done

let test_mangle_line () =
  let inj = Inj.create (ok_spec "seed=11,trunc:1.0") in
  let line = {|{"id":"abc","ok":true,"result":{"x":1,"y":[1,2,3]}}|} in
  let truncated = Inj.mangle_line inj ~key:3 ~attempt:0 ~action:Inj.Trunc line in
  Alcotest.(check bool) "truncation shortens" true
    (String.length truncated < String.length line);
  Alcotest.(check string) "truncation keeps a prefix"
    (String.sub line 0 (String.length truncated))
    truncated;
  let corrupted =
    Inj.mangle_line inj ~key:3 ~attempt:0 ~action:Inj.Corrupt line
  in
  Alcotest.(check int) "corruption keeps the length" (String.length line)
    (String.length corrupted);
  let diffs = ref 0 in
  String.iteri (fun i c -> if c <> corrupted.[i] then incr diffs) line;
  Alcotest.(check int) "corruption flips exactly one byte" 1 !diffs;
  (* Both are deterministic for a (key, attempt). *)
  Alcotest.(check string) "trunc replays" truncated
    (Inj.mangle_line inj ~key:3 ~attempt:0 ~action:Inj.Trunc line);
  Alcotest.(check string) "corrupt replays" corrupted
    (Inj.mangle_line inj ~key:3 ~attempt:0 ~action:Inj.Corrupt line)

let test_slow_factor () =
  let inj = Inj.create (ok_spec "slowshard@1:3,slowshard@2:1.5") in
  Alcotest.(check (float 1e-9)) "unlisted shard unscaled" 1.0
    (Inj.slow_factor inj ~shard:0);
  Alcotest.(check (float 1e-9)) "listed shard scaled" 3.0
    (Inj.slow_factor inj ~shard:1);
  Alcotest.(check (float 1e-9)) "second listing" 1.5
    (Inj.slow_factor inj ~shard:2)

let suite =
  [ Alcotest.test_case "spec round-trip" `Quick test_roundtrip;
    Alcotest.test_case "spec byte suffixes" `Quick test_byte_suffixes;
    Alcotest.test_case "spec parse errors" `Quick test_parse_errors;
    Alcotest.test_case "spec emptiness" `Quick test_is_empty;
    Alcotest.test_case "injector determinism" `Quick test_injector_determinism;
    Alcotest.test_case "injector bounds" `Quick test_injector_bounds;
    Alcotest.test_case "droop windows" `Quick test_droop_windows;
    Alcotest.test_case "evict to capacity" `Quick test_evict_to_capacity;
    Alcotest.test_case "empty spec is bit-exact" `Quick
      test_empty_spec_bit_exact;
    Alcotest.test_case "seeded replay" `Quick test_seeded_replay;
    Alcotest.test_case "bank loss degrades in place" `Quick
      test_bank_loss_degrades;
    Alcotest.test_case "retry exhaustion aborts" `Quick
      test_retry_exhaustion_aborts;
    Alcotest.test_case "abort event" `Quick test_abort_event;
    Alcotest.test_case "droop slows the board" `Quick test_droop_slows;
    Alcotest.test_case "transport spec round-trip" `Quick
      test_transport_roundtrip;
    Alcotest.test_case "spec errors carry clause and position" `Quick
      test_spec_positional_errors;
    Alcotest.test_case "scale_transport scales and clamps" `Quick
      test_scale_transport;
    Alcotest.test_case "transport actions deterministic" `Quick
      test_transport_action_determinism;
    Alcotest.test_case "mangle truncates and corrupts deterministically"
      `Quick test_mangle_line;
    Alcotest.test_case "slow factors per shard" `Quick test_slow_factor ]
