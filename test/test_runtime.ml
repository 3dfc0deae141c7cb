(* The multi-tenant board runtime: SRAM partitioning, admission control,
   the transfer scheduler/arbiter, and the bandwidth-contended
   co-simulation engine.

   The load-bearing invariant is single-tenant exactness: with one
   tenant on the board the contended engine must reproduce
   Sim.Engine.simulate bit for bit — same starts, finishes, waits and
   bindings on every node of every zoo model.  The multi-tenant
   invariants are then inequalities: contention never makes anyone
   faster than isolation, DDR bytes are conserved under every policy,
   admission never over-commits the SRAM budget. *)

module Rt = Lcmm_runtime
module F = Lcmm.Framework

let dtype = Tensor.Dtype.I16

(* Compile a model exactly the way the runtime does when the partition
   grants the whole budget: DSE for the LCMM style, unconstrained plan,
   isolated reference simulation. *)
let compile model =
  let g = Models.Zoo.build model in
  let dse =
    Accel.Dse.run ~device:Fpga.Device.vu9p ~style:Accel.Config.Lcmm dtype g
  in
  let plan = F.plan dse.Accel.Dse.config g in
  let iso =
    Sim.Engine.simulate ?prefetch:plan.F.prefetch plan.F.metric
      ~on_chip:plan.F.allocation.Lcmm.Dnnk.on_chip
  in
  (g, plan, iso)

let spec ?(priority = 0) ?(arrival = 0.) model k g =
  { Rt.Runtime.name = Printf.sprintf "%s#%d" model k;
    model;
    graph = g;
    priority;
    arrival }

let replicas model n =
  let g = Models.Zoo.build model in
  List.init n (fun k -> spec model k g)

let run_mix ?(scheduler = Rt.Scheduler.Edf)
    ?(arbitration = Rt.Arbiter.Fair_share) ?(channels = 1) specs =
  Rt.Runtime.run
    { Rt.Runtime.default_options with scheduler; arbitration; channels }
    specs

let admitted report =
  List.filter
    (fun (t : Rt.Report.tenant_report) -> t.Rt.Report.status = Rt.Report.Admitted)
    report.Rt.Report.tenants

(* --- single-tenant exactness --- *)

(* Engine level: one tenant's co-simulation must equal the reference
   discrete-event run on every node — starts, finishes, waits,
   bindings, and the run-level aggregates.  Exact float equality; any
   arithmetic drift in the shared-bus path would show up here. *)
let check_engine_exact model =
  let _, plan, iso = compile model in
  let slack target =
    match plan.F.prefetch with
    | None -> 0.
    | Some pdg -> (
      match Lcmm.Prefetch.source_of pdg target with
      | Some s ->
        iso.Sim.Engine.timings.(target).Sim.Engine.start
        -. iso.Sim.Engine.timings.(s).Sim.Engine.start
      | None -> 0.)
  in
  List.iter
    (fun (arbitration, scheduler) ->
      let result =
        Rt.Engine.run ~arbitration ~scheduler
          [| { Rt.Engine.label = model;
               metric = plan.F.metric;
               on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
               prefetch = plan.F.prefetch;
               arrival = 0.;
               priority = 0;
               slack;
               replan = None } |]
      in
      let t = result.Rt.Engine.tenants.(0) in
      Alcotest.(check int)
        (model ^ " node count")
        (Array.length iso.Sim.Engine.timings)
        (Array.length t.Rt.Engine.timings);
      Array.iteri
        (fun i (ref_t : Sim.Engine.node_timing) ->
          let got = t.Rt.Engine.timings.(i) in
          let tag what = Printf.sprintf "%s node %d %s" model i what in
          Alcotest.(check bool) (tag "start") true
            (got.Sim.Engine.start = ref_t.Sim.Engine.start);
          Alcotest.(check bool) (tag "finish") true
            (got.Sim.Engine.finish = ref_t.Sim.Engine.finish);
          Alcotest.(check bool) (tag "wait") true
            (got.Sim.Engine.wait = ref_t.Sim.Engine.wait);
          Alcotest.(check bool) (tag "binding") true
            (got.Sim.Engine.binding = ref_t.Sim.Engine.binding))
        iso.Sim.Engine.timings;
      Alcotest.(check bool) (model ^ " total") true
        (t.Rt.Engine.finish = iso.Sim.Engine.total);
      Alcotest.(check bool) (model ^ " prefetch wait") true
        (t.Rt.Engine.prefetch_wait = iso.Sim.Engine.prefetch_wait);
      Alcotest.(check bool) (model ^ " channel busy") true
        (t.Rt.Engine.wt_channel_busy = iso.Sim.Engine.wt_channel_busy))
    [ (Rt.Arbiter.Fair_share, Rt.Scheduler.Greedy);
      (Rt.Arbiter.Fair_share, Rt.Scheduler.Edf);
      (Rt.Arbiter.Priority, Rt.Scheduler.Greedy);
      (Rt.Arbiter.Priority, Rt.Scheduler.Edf) ]

let test_engine_exact_small () =
  List.iter check_engine_exact [ "alexnet"; "googlenet" ]

(* Driver level, across the whole zoo: a lone tenant gets the full
   budget, reuses the unconstrained plan, and reports exactly the
   latency `lcmm sim` would. *)
let test_single_tenant_zoo_exact () =
  List.iter
    (fun (e : Models.Zoo.entry) ->
      let model = e.Models.Zoo.model_name in
      let _, _, iso = compile model in
      let report = run_mix (replicas model 1) in
      match admitted report with
      | [ t ] ->
        Alcotest.(check bool) (model ^ " latency exact") true
          (t.Rt.Report.latency_ms = iso.Sim.Engine.total *. 1e3);
        Alcotest.(check bool) (model ^ " isolated = latency") true
          (t.Rt.Report.isolated_ms = t.Rt.Report.latency_ms);
        Alcotest.(check bool) (model ^ " slowdown 1") true
          (t.Rt.Report.slowdown = 1.);
        Alcotest.(check bool) (model ^ " makespan") true
          (report.Rt.Report.makespan_ms = t.Rt.Report.latency_ms)
      | _ -> Alcotest.failf "%s: expected one admitted tenant" model)
    Models.Zoo.all

(* --- multi-tenant inequalities --- *)

(* Contention can only hurt: every tenant is at least as slow as its
   partitioned isolated run, and the makespan covers the slowest
   isolated run — the zero-contention lower bound. *)
let test_makespan_lower_bounds () =
  List.iter
    (fun scheduler ->
      let report = run_mix ~scheduler (replicas "googlenet" 2) in
      let ts = admitted report in
      Alcotest.(check int) "both admitted" 2 (List.length ts);
      List.iter
        (fun (t : Rt.Report.tenant_report) ->
          Alcotest.(check bool)
            (t.Rt.Report.name ^ " latency >= isolated")
            true
            (t.Rt.Report.latency_ms >= t.Rt.Report.isolated_ms))
        ts;
      let max_iso =
        List.fold_left
          (fun acc (t : Rt.Report.tenant_report) ->
            Float.max acc t.Rt.Report.isolated_ms)
          0. ts
      in
      Alcotest.(check bool) "makespan >= max isolated" true
        (report.Rt.Report.makespan_ms >= max_iso))
    [ Rt.Scheduler.Greedy; Rt.Scheduler.Edf ]

(* Arbitration and scheduling reorder transfers; they must not create
   or destroy DDR traffic.  Byte counts are integer-valued, so the
   per-tenant sums are exact under any completion order. *)
let test_ddr_bytes_conserved () =
  let specs = replicas "googlenet" 2 in
  let baseline = ref [] in
  List.iter
    (fun (arbitration, scheduler) ->
      let report = run_mix ~arbitration ~scheduler specs in
      let bytes =
        List.map
          (fun (t : Rt.Report.tenant_report) ->
            (t.Rt.Report.name, t.Rt.Report.ddr_mb))
          (admitted report)
      in
      match !baseline with
      | [] -> baseline := bytes
      | b ->
        List.iter2
          (fun (name, mb) (name', mb') ->
            Alcotest.(check string) "tenant order stable" name name';
            Alcotest.(check (float 1e-9)) (name ^ " ddr conserved") mb mb')
          b bytes)
    [ (Rt.Arbiter.Fair_share, Rt.Scheduler.Greedy);
      (Rt.Arbiter.Fair_share, Rt.Scheduler.Edf);
      (Rt.Arbiter.Priority, Rt.Scheduler.Greedy);
      (Rt.Arbiter.Priority, Rt.Scheduler.Edf) ]

(* On mixes whose tenants have comparable slack scales (the benchmark
   suite), urgency-ordering the bus beats letting everything share it. *)
let test_edf_never_worse_on_suite () =
  List.iter
    (fun mix ->
      let specs =
        List.concat_map (fun (model, count) -> replicas model count) mix
      in
      let greedy = run_mix ~scheduler:Rt.Scheduler.Greedy specs in
      let edf = run_mix ~scheduler:Rt.Scheduler.Edf specs in
      Alcotest.(check bool)
        (Printf.sprintf "edf <= greedy on %s"
           (String.concat "+" (List.map fst mix)))
        true
        (edf.Rt.Report.makespan_ms <= greedy.Rt.Report.makespan_ms))
    [ [ ("googlenet", 2) ]; [ ("resnet50", 2) ]; [ ("alexnet", 2) ] ]

(* --- partition / admission / policy units --- *)

let test_partition_split () =
  List.iter
    (fun policy ->
      let budget = 1_000_000 in
      let demands = [| 900_000; 300_000; 0; 123_456 |] in
      let grants = Rt.Partition.split policy ~budget_bytes:budget ~demands in
      Alcotest.(check int) "one grant per demand" (Array.length demands)
        (Array.length grants);
      Alcotest.(check bool) "grants within budget" true
        (Array.fold_left ( + ) 0 grants <= budget);
      Array.iter
        (fun g -> Alcotest.(check bool) "non-negative" true (g >= 0))
        grants)
    Rt.Partition.all;
  (* Equal splits equally; demand-weighted covers every demand when the
     total fits. *)
  let eq =
    Rt.Partition.split Rt.Partition.Equal ~budget_bytes:900 ~demands:[| 1; 2; 3 |]
  in
  Alcotest.(check bool) "equal shares" true (eq = [| 300; 300; 300 |]);
  let dw =
    Rt.Partition.split Rt.Partition.Demand_weighted ~budget_bytes:1000
      ~demands:[| 100; 300 |]
  in
  Alcotest.(check bool) "demands covered" true (dw.(0) >= 100 && dw.(1) >= 300)

(* Admission over a pseudo-random demand sweep: admitted grants never
   exceed the budget, every admitted tenant keeps its minimum useful
   share, and a lone infeasible tenant is rejected, not queued. *)
let test_admission_never_overcommits () =
  let state = ref 123456789 in
  let rand bound =
    (* Deterministic LCG: the sweep must not depend on global state. *)
    state := (1103515245 * !state + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for _ = 1 to 200 do
    let n = 1 + rand 6 in
    let budget = rand 4_000_000 in
    let min_grant = Lcmm.Dnnk.block_bytes in
    let demands =
      Array.init n (fun _ ->
          { Rt.Admission.sram_bytes = rand 2_000_000;
            bandwidth = float_of_int (rand 1_000) *. 1e6 })
    in
    List.iter
      (fun partition ->
        let decisions =
          Rt.Admission.decide ~partition
            ~budget_bytes:budget ~board_bandwidth:50e9 ~overcommit:4.0 demands
        in
        let granted = ref 0 in
        Array.iteri
          (fun i d ->
            match d with
            | Rt.Admission.Admitted { grant_bytes } ->
              granted := !granted + grant_bytes;
              let required = min demands.(i).Rt.Admission.sram_bytes min_grant in
              Alcotest.(check bool) "grant covers minimum" true
                (grant_bytes >= required)
            | Rt.Admission.Queued _ -> ()
            | Rt.Admission.Rejected _ ->
              let required = min demands.(i).Rt.Admission.sram_bytes min_grant in
              Alcotest.(check bool) "rejected only when infeasible alone" true
                (required > budget))
          decisions;
        Alcotest.(check bool) "grants within budget" true (!granted <= budget))
      Rt.Partition.all
  done

let test_scheduler_eligibility () =
  let pending =
    [ { Rt.Scheduler.key = 0; deadline = 3.; priority = 0; rank = 0. };
      { Rt.Scheduler.key = 1; deadline = 1.; priority = 5; rank = 0. };
      { Rt.Scheduler.key = 2; deadline = 1.; priority = 2; rank = 0. } ]
  in
  Alcotest.(check (list int)) "greedy admits all" [ 0; 1; 2 ]
    (List.sort compare (Rt.Scheduler.eligible Rt.Scheduler.Greedy pending));
  (* EDF: earliest deadline, priority breaking the tie. *)
  Alcotest.(check (list int)) "edf picks most urgent" [ 2 ]
    (Rt.Scheduler.eligible Rt.Scheduler.Edf pending);
  Alcotest.(check (list int)) "edf of nothing" []
    (Rt.Scheduler.eligible Rt.Scheduler.Edf []);
  (* Optimized: lowest rank wins regardless of deadline; all-zero ranks
     degenerate to EDF. *)
  Alcotest.(check (list int)) "optimized without ranks = edf" [ 2 ]
    (Rt.Scheduler.eligible Rt.Scheduler.Optimized pending);
  let ranked =
    List.map
      (fun p ->
        { p with Rt.Scheduler.rank = (if p.Rt.Scheduler.key = 0 then 1. else 2.) })
      pending
  in
  Alcotest.(check (list int)) "optimized follows ranks" [ 0 ]
    (Rt.Scheduler.eligible Rt.Scheduler.Optimized ranked)

let test_arbiter_rates () =
  let jobs = [ (10, 1); (11, 0); (12, 1) ] in
  let fair = Rt.Arbiter.rates Rt.Arbiter.Fair_share jobs in
  List.iter
    (fun (_, r) -> Alcotest.(check (float 1e-12)) "fair share" (1. /. 3.) r)
    fair;
  let prio = Rt.Arbiter.rates Rt.Arbiter.Priority jobs in
  List.iter
    (fun (key, r) ->
      Alcotest.(check (float 0.)) "priority winner-takes-all"
        (if key = 11 then 1. else 0.)
        r)
    prio;
  Alcotest.(check (list (pair int (float 0.)))) "empty" []
    (Rt.Arbiter.rates Rt.Arbiter.Fair_share [])

(* --- per-channel timelines and the schedule optimizer --- *)

let integral segs =
  List.fold_left
    (fun acc (s : Rt.Engine.segment) ->
      acc
      +. ((s.Rt.Engine.seg_end -. s.Rt.Engine.seg_start)
         *. s.Rt.Engine.utilization))
    0. segs

(* One channel is the aggregate model, structurally: the single channel
   timeline IS the aggregate timeline, and the report omits every
   channel field. *)
let test_single_channel_is_aggregate () =
  let report = run_mix (replicas "googlenet" 2) in
  Alcotest.(check int) "one channel" 1 report.Rt.Report.channels;
  Alcotest.(check int) "one channel timeline" 1
    (Array.length report.Rt.Report.channel_timelines);
  Alcotest.(check bool) "channel 0 timeline = aggregate" true
    (report.Rt.Report.channel_timelines.(0) = report.Rt.Report.timeline);
  let json = Dnn_serial.Json.to_string (Rt.Report.to_json report) in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no channel fields in 1-channel json" false
    (contains json "channel_timelines")

(* Striping conserves work: the per-channel utilization integrals sum
   to the aggregate timeline's integral (same transfers, same rates,
   just bucketed per channel). *)
let test_channel_busy_conservation () =
  List.iter
    (fun scheduler ->
      let report = run_mix ~scheduler ~channels:2 (replicas "googlenet" 2) in
      Alcotest.(check int) "two channels" 2 report.Rt.Report.channels;
      let agg = integral report.Rt.Report.timeline in
      let per =
        Array.fold_left
          (fun acc segs -> acc +. integral segs)
          0. report.Rt.Report.channel_timelines
      in
      Alcotest.(check (float 1e-9)) "channel integrals sum to aggregate" agg
        per)
    [ Rt.Scheduler.Greedy; Rt.Scheduler.Edf ]

(* The optimizer's portfolio guarantee: on contended mixes, under both
   arbiters and channel widths, optimized never loses to greedy or edf,
   and its telemetry is well-formed (bounded rounds, history matching,
   convergence on these mixes). *)
let test_optimized_never_worse () =
  List.iter
    (fun (mix, arbitration, channels) ->
      let specs =
        List.concat_map
          (fun (model, count, priority) ->
            List.init count (fun k ->
                spec ~priority model k (Models.Zoo.build model)))
          mix
      in
      let label =
        String.concat "+" (List.map (fun (m, _, _) -> m) mix)
      in
      let greedy =
        run_mix ~scheduler:Rt.Scheduler.Greedy ~arbitration ~channels specs
      in
      let edf =
        run_mix ~scheduler:Rt.Scheduler.Edf ~arbitration ~channels specs
      in
      let opt =
        run_mix ~scheduler:Rt.Scheduler.Optimized ~arbitration ~channels specs
      in
      let baseline =
        Float.min greedy.Rt.Report.makespan_ms edf.Rt.Report.makespan_ms
      in
      Alcotest.(check bool)
        (Printf.sprintf "optimized <= min(greedy, edf) on %s" label)
        true
        (opt.Rt.Report.makespan_ms <= baseline +. 1e-9);
      match opt.Rt.Report.schedule with
      | None -> Alcotest.failf "%s: optimized run has no schedule info" label
      | Some s ->
        Alcotest.(check bool) (label ^ " rounds within bound") true
          (s.Rt.Report.sched_rounds >= 1
          && s.Rt.Report.sched_rounds
             <= Rt.Runtime.schedule_rounds);
        Alcotest.(check int) (label ^ " history per round")
          s.Rt.Report.sched_rounds
          (List.length s.Rt.Report.sched_history_ms);
        Alcotest.(check bool) (label ^ " converged") true
          s.Rt.Report.sched_converged;
        Alcotest.(check bool) (label ^ " baselines in candidate list") true
          (List.mem_assoc "greedy" s.Rt.Report.sched_candidates
          && List.mem_assoc "edf" s.Rt.Report.sched_candidates))
    [ ([ ("googlenet", 2, 0) ], Rt.Arbiter.Fair_share, 1);
      ([ ("alexnet", 2, 0) ], Rt.Arbiter.Fair_share, 2);
      ([ ("googlenet", 2, 0); ("alexnet", 1, 1) ], Rt.Arbiter.Priority, 1);
      ([ ("squeezenet", 2, 0); ("alexnet", 1, 1) ], Rt.Arbiter.Priority, 2) ]

(* Under priority arbitration the optimizer minimizes high-priority
   slowdown within the portfolio guarantee, so it can never report a
   worse high-priority slowdown than EDF. *)
let hp_slowdown report =
  let ts = admitted report in
  let hp =
    List.fold_left
      (fun acc (t : Rt.Report.tenant_report) -> min acc t.Rt.Report.priority)
      max_int ts
  in
  List.fold_left
    (fun acc (t : Rt.Report.tenant_report) ->
      if t.Rt.Report.priority = hp then Float.max acc t.Rt.Report.slowdown
      else acc)
    1. ts

let test_optimized_hp_slowdown () =
  let specs =
    List.concat_map
      (fun (model, count, priority) ->
        List.init count (fun k ->
            spec ~priority model k (Models.Zoo.build model)))
      [ ("googlenet", 2, 0); ("alexnet", 2, 1) ]
  in
  let edf =
    run_mix ~scheduler:Rt.Scheduler.Edf ~arbitration:Rt.Arbiter.Priority specs
  in
  let opt =
    run_mix ~scheduler:Rt.Scheduler.Optimized ~arbitration:Rt.Arbiter.Priority
      specs
  in
  Alcotest.(check bool) "hp slowdown <= edf's" true
    (hp_slowdown opt <= hp_slowdown edf +. 1e-9);
  Alcotest.(check bool) "makespan still <= edf's" true
    (opt.Rt.Report.makespan_ms <= edf.Rt.Report.makespan_ms +. 1e-9)

(* The whole search is deterministic: same mix, same channel count,
   same chosen candidate and byte-identical report JSON. *)
let test_optimizer_deterministic () =
  let once () =
    let report =
      run_mix ~scheduler:Rt.Scheduler.Optimized ~channels:2
        (replicas "googlenet" 2)
    in
    (Dnn_serial.Json.to_string (Rt.Report.to_json report),
     match report.Rt.Report.schedule with
     | Some s -> s.Rt.Report.sched_chosen
     | None -> "")
  in
  let j1, c1 = once () in
  let j2, c2 = once () in
  Alcotest.(check string) "chosen candidate stable" c1 c2;
  Alcotest.(check string) "report json byte-identical" j1 j2

(* The plan/schedule co-iteration's solves fan out on the pool, the
   contention-scaled replans included: a two-domain run must render the
   sequential report byte for byte.  Two priority levels under priority
   arbitration slow the mix enough to reach a second round, so the
   scaled replans are exercised, not just the admission-time ones. *)
let test_optimized_parallel_deterministic () =
  let specs =
    replicas "alexnet" 2
    @ List.init 2 (fun k ->
          spec ~priority:1 "squeezenet" k (Models.Zoo.build "squeezenet"))
  in
  let once ?pool () =
    Rt.Runtime.run ?pool
      { Rt.Runtime.default_options with
        scheduler = Rt.Scheduler.Optimized;
        arbitration = Rt.Arbiter.Priority }
      specs
  in
  let json report = Dnn_serial.Json.to_string (Rt.Report.to_json report) in
  let seq = once () in
  let par =
    let pool = Lcmm.Pool.create ~domains:2 () in
    Fun.protect
      ~finally:(fun () -> Lcmm.Pool.shutdown pool)
      (fun () -> once ~pool ())
  in
  (match seq.Rt.Report.schedule with
  | Some s ->
    Alcotest.(check bool) "scaled replans ran (>= 2 rounds)" true
      (s.Rt.Report.sched_rounds >= 2)
  | None -> Alcotest.fail "optimized run without schedule telemetry");
  Alcotest.(check string) "1 vs 2 domains byte-identical" (json seq)
    (json par)

(* --- report plumbing --- *)

let test_report_json_shape () =
  let report = run_mix (replicas "alexnet" 2) in
  let json = Rt.Report.to_json report in
  let field name =
    match Dnn_serial.Json.member name json with
    | Ok v -> v
    | Error msg -> Alcotest.failf "missing %s: %s" name msg
  in
  (match field "tenants" with
  | Dnn_serial.Json.List l -> Alcotest.(check int) "two tenants" 2 (List.length l)
  | _ -> Alcotest.fail "tenants not a list");
  (match field "bandwidth_timeline" with
  | Dnn_serial.Json.List (_ :: _) -> ()
  | _ -> Alcotest.fail "expected a non-empty timeline");
  ignore (field "makespan_ms");
  ignore (field "bus_busy_fraction");
  (* The timeline's busy time must equal the reported fraction. *)
  let sum =
    List.fold_left
      (fun acc (s : Rt.Engine.segment) ->
        acc
        +. ((s.Rt.Engine.seg_end -. s.Rt.Engine.seg_start)
           *. Float.min 1. s.Rt.Engine.utilization))
      0. report.Rt.Report.timeline
  in
  Alcotest.(check (float 1e-9)) "bus fraction consistent"
    (sum /. (report.Rt.Report.makespan_ms /. 1e3))
    report.Rt.Report.bus_busy_fraction

let suite =
  [ Alcotest.test_case "engine exact (single tenant)" `Quick
      test_engine_exact_small;
    Alcotest.test_case "single tenant = lcmm sim across the zoo" `Slow
      test_single_tenant_zoo_exact;
    Alcotest.test_case "makespan lower bounds" `Quick
      test_makespan_lower_bounds;
    Alcotest.test_case "ddr bytes conserved" `Quick test_ddr_bytes_conserved;
    Alcotest.test_case "edf <= greedy on the suite" `Quick
      test_edf_never_worse_on_suite;
    Alcotest.test_case "partition split" `Quick test_partition_split;
    Alcotest.test_case "admission never over-commits" `Quick
      test_admission_never_overcommits;
    Alcotest.test_case "scheduler eligibility" `Quick
      test_scheduler_eligibility;
    Alcotest.test_case "arbiter rates" `Quick test_arbiter_rates;
    Alcotest.test_case "one channel = aggregate timeline" `Quick
      test_single_channel_is_aggregate;
    Alcotest.test_case "channel busy integrals conserved" `Quick
      test_channel_busy_conservation;
    Alcotest.test_case "optimized <= min(greedy, edf)" `Slow
      test_optimized_never_worse;
    Alcotest.test_case "optimized hp slowdown <= edf" `Slow
      test_optimized_hp_slowdown;
    Alcotest.test_case "optimizer deterministic" `Slow
      test_optimizer_deterministic;
    Alcotest.test_case "optimized 1 vs 2 domains byte-identical" `Slow
      test_optimized_parallel_deterministic;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape ]
