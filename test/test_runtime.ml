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

(* The optimized scheduler's plan/schedule round bound in [Runtime]. *)
let schedule_rounds = 3

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

(* [(model, replicas, priority)] parts; the replicas of a model share
   one graph. *)
let mix parts =
  List.concat_map
    (fun (model, count, priority) ->
      let g = Models.Zoo.build model in
      List.init count (fun k -> spec ~priority model k g))
    parts

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
  let slack = Rt.Runtime.slack_of plan iso in
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
    [ Rt.Transfer.make ~key:0 ~deadline:3. ~priority:0 ~rank:0.;
      Rt.Transfer.make ~key:1 ~deadline:1. ~priority:5 ~rank:0.;
      Rt.Transfer.make ~key:2 ~deadline:1. ~priority:2 ~rank:0. ]
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
      (fun (p : Rt.Transfer.t) ->
        Rt.Transfer.make ~key:p.key ~deadline:p.clk.deadline
          ~priority:p.priority
          ~rank:(if p.key = 0 then 1. else 2.))
      pending
  in
  Alcotest.(check (list int)) "optimized follows ranks" [ 0 ]
    (Rt.Scheduler.eligible Rt.Scheduler.Optimized ranked)

let test_arbiter_rates () =
  let jobs =
    List.map
      (fun (key, priority) ->
        Rt.Transfer.make ~key ~priority ~deadline:0. ~rank:0.)
      [ (10, 1); (11, 0); (12, 1) ]
  in
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

(* The allocation-free policy forms the engine folds over its tenant
   array ([Scheduler.more_urgent], [Arbiter.preferred]/[Arbiter.share])
   must pick what the list semantics pick: the lexicographic minimum of
   (deadline, priority, key) under Edf, of (rank, deadline, priority,
   key) under Optimized, every key under Greedy; the lexicographic
   minimum of (priority, key) takes a Priority channel, and fair share
   splits it evenly.  Small value ranges force equal deadlines,
   priorities and ranks; sets run from empty to eight. *)
let prop_policy_folds_match_lists =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 8)
        (quad (int_range 0 2) (int_range 0 2) (int_range 0 2) (int_range 0 99)))
  in
  Helpers.qtest ~count:500 "policy folds = list semantics" gen (fun fields ->
      (* Distinct keys, in an order unrelated to the other fields. *)
      let ready =
        List.mapi
          (fun i (d, p, r, salt) ->
            Rt.Transfer.make ~key:((salt * 16) + i) ~deadline:(float_of_int d)
              ~priority:p ~rank:(float_of_int r))
          fields
      in
      let keys = List.map (fun (p : Rt.Transfer.t) -> p.key) ready in
      let lex_min key = function
        | [] -> []
        | ps ->
          let sorted = List.sort (fun a b -> compare (key a) (key b)) ps in
          [ (List.hd sorted).Rt.Transfer.key ]
      in
      let by_list = function
        | Rt.Scheduler.Greedy -> keys
        | Rt.Scheduler.Edf ->
          lex_min
            (fun (p : Rt.Transfer.t) -> (p.clk.deadline, p.priority, p.key))
            ready
        | Rt.Scheduler.Optimized ->
          lex_min
            (fun (p : Rt.Transfer.t) ->
              (p.clk.rank, p.clk.deadline, p.priority, p.key))
            ready
      in
      (* The engine's form: one left fold over an array. *)
      let by_fold t =
        let a = Array.of_list ready in
        if not (Rt.Scheduler.exclusive t) then keys
        else if Array.length a = 0 then []
        else begin
          let best = ref a.(0) in
          Array.iter
            (fun p -> if Rt.Scheduler.more_urgent t p !best then best := p)
            a;
          [ !best.Rt.Transfer.key ]
        end
      in
      let schedulers_agree =
        List.for_all
          (fun t ->
            by_fold t = by_list t && Rt.Scheduler.eligible t ready = by_list t)
          Rt.Scheduler.all
      in
      let jobs =
        List.map (fun (p : Rt.Transfer.t) -> (p.key, p.priority)) ready
      in
      let n = List.length jobs in
      let top =
        match
          List.sort (fun (ka, pa) (kb, pb) -> compare (pa, ka) (pb, kb)) jobs
        with
        | (k, _) :: _ -> k
        | [] -> -1
      in
      let rates_by_list = function
        | Rt.Arbiter.Fair_share ->
          List.map (fun (k, _) -> (k, 1. /. float_of_int n)) jobs
        | Rt.Arbiter.Priority ->
          List.map (fun (k, _) -> (k, if k = top then 1. else 0.)) jobs
      in
      let rates_by_fold t =
        match ready with
        | [] -> []
        | first :: _ ->
          let winner = ref first in
          List.iter
            (fun c -> if Rt.Arbiter.preferred c !winner then winner := c)
            ready;
          List.map
            (fun (k, _) ->
              ( k,
                Rt.Arbiter.share t ~contenders:n
                  ~winner:(k = !winner.Rt.Transfer.key) ))
            jobs
      in
      schedulers_agree
      && List.for_all
           (fun t ->
             rates_by_fold t = rates_by_list t
             && Rt.Arbiter.rates t ready = rates_by_list t)
           Rt.Arbiter.all)

(* A run's minor-heap allocation is bounded by what it must build — the
   transfer records, node timings and result — and not by its event or
   settle-pass count.  googlenet x2 at priority 0 plus squeezenet x2 at
   priority 1, each planned at the whole budget (410 nodes and
   transfers), under EDF and the optimized scheduler with a fixed rank,
   fair-share and priority arbitration: a run reads 38.9-40.3 words per
   node and transfer, most of it a transfer's record and flat clocks
   (25 words), its log entry (26) and a node's timing (12).  Per-node
   state records, boxed floats in the event loop and a scheduler and
   arbiter view per transfer read 82-87; re-arbitrating on every settle
   pass through rebuilt lists, with boxed clocks and an allocating heap
   peek, read 214-221. *)
let test_engine_allocation_bounded () =
  let _, g_plan, g_iso = compile "googlenet" in
  let _, s_plan, s_iso = compile "squeezenet" in
  let compiled =
    Array.mapi
      (fun k ((plan : F.plan), iso, priority) ->
        Rt.Engine.compile
          { Rt.Engine.label = Printf.sprintf "t%d" k;
            metric = plan.F.metric;
            on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
            prefetch = plan.F.prefetch;
            arrival = 0.;
            priority;
            slack = Rt.Runtime.slack_of plan iso;
            replan = None })
      [| (g_plan, g_iso, 0); (g_plan, g_iso, 0); (s_plan, s_iso, 1);
         (s_plan, s_iso, 1) |]
  in
  let nodes =
    Array.fold_left
      (fun acc (c : Rt.Engine.compiled) -> acc + Array.length c.Rt.Engine.profiles)
      0 compiled
  in
  let rank ~owner ~target kind =
    let k =
      match kind with
      | Rt.Engine.Prefetch_load -> 0
      | Rt.Engine.Demand_load -> 1
      | Rt.Engine.Weight_stream_x -> 2
    in
    float_of_int ((-target * 3) - k) +. (0.25 *. float_of_int owner)
  in
  List.iter
    (fun (arbitration, scheduler, rank) ->
      let run () =
        Rt.Engine.run_compiled ~arbitration ~scheduler ?rank compiled
      in
      ignore (run ());
      let before = Gc.minor_words () in
      let r = run () in
      let words = Gc.minor_words () -. before in
      let items = nodes + List.length r.Rt.Engine.transfers in
      let label =
        Printf.sprintf "%s/%s: %.0f words for %d nodes + transfers"
          (Rt.Arbiter.to_string arbitration)
          (Rt.Scheduler.to_string scheduler)
          words items
      in
      Alcotest.(check bool) label true (words <= 45. *. float_of_int items))
    [ (Rt.Arbiter.Fair_share, Rt.Scheduler.Edf, None);
      (Rt.Arbiter.Priority, Rt.Scheduler.Edf, None);
      (Rt.Arbiter.Fair_share, Rt.Scheduler.Optimized, Some rank);
      (Rt.Arbiter.Priority, Rt.Scheduler.Optimized, Some rank) ]

(* One schedule search allocates what its engine runs must build and
   little else: the beam steps through flat arrays and only the
   winner's run outlives the search.  squeezenet x2 at priority 0 plus
   inception_v4 x2 at priority 1 under priority arbitration (9
   candidates, the search `bench perf` times) reads 345,607 minor
   words; with a beam that copied its state arrays per expansion and
   stable-sorted each step, and per-node engine records, it read
   891,815. *)
let test_search_allocation_bounded () =
  let _, s_plan, s_iso = compile "squeezenet" in
  let _, i_plan, i_iso = compile "inception_v4" in
  let tenants =
    [| (s_plan, s_iso, 0); (s_plan, s_iso, 0); (i_plan, i_iso, 1);
       (i_plan, i_iso, 1) |]
  in
  let inputs =
    Array.mapi
      (fun k ((plan : F.plan), iso, priority) ->
        { Rt.Engine.label = Printf.sprintf "t%d" k;
          metric = plan.F.metric;
          on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
          prefetch = plan.F.prefetch;
          arrival = 0.;
          priority;
          slack = Rt.Runtime.slack_of plan iso;
          replan = None })
      tenants
  in
  let isos = Array.map (fun (_, iso, _) -> iso) tenants in
  let search () =
    Rt.Optimizer.search ~hp_first:true ~arbitration:Rt.Arbiter.Priority
      ~channels:1 ~isos inputs
  in
  ignore (search ());
  let before = Gc.minor_words () in
  let o = search () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "nine candidates" 9
    (List.length o.Rt.Optimizer.candidates);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per search" words)
    true (words <= 400_000.)

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
             <= schedule_rounds);
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

(* --- search reuse --- *)

(* A test-local copy of the plan/schedule co-iteration as it stood
   before rounds could reuse a search: every round searches, every plan
   is planned from scratch (no stage shared between plans, so no two
   plans share a metric), and the scaled replans are recomputed each
   time they are needed.  Admission does not depend on the
   co-iteration, so the admitted set, grants and demands are read from
   the report under test; every field the co-iteration decides (plans,
   isolated and contended runs, makespan, timelines, schedule
   telemetry) is recomputed here. *)
let reference_optimized ?(on_search = ignore) (options : Rt.Runtime.options)
    specs (report : Rt.Report.t) =
  let specs = Array.of_list specs in
  let fault_spec =
    match options.Rt.Runtime.faults with
    | Some s when not (Fault.Spec.has_board_faults s) -> None
    | f -> f
  in
  let fw = options.Rt.Runtime.fw_options in
  let maybe_fuse (p : F.plan) =
    if p.F.options.F.fusion then
      Lcmm_fusion.Fusion.effective_plan (Lcmm_fusion.Fusion.apply p)
    else p
  in
  let isolated (p : F.plan) =
    Sim.Engine.simulate ?prefetch:p.F.prefetch p.F.metric
      ~on_chip:p.F.allocation.Lcmm.Dnnk.on_chip
  in
  let used_bytes (p : F.plan) =
    p.F.allocation.Lcmm.Dnnk.used_blocks * Lcmm.Dnnk.block_bytes
  in
  let bases = Hashtbl.create 8 in
  let base (s : Rt.Runtime.spec) =
    match Hashtbl.find_opt bases s.Rt.Runtime.model with
    | Some b -> b
    | None ->
      let dse =
        Accel.Dse.run ~device:options.Rt.Runtime.device
          ~style:Accel.Config.Lcmm options.Rt.Runtime.dtype s.Rt.Runtime.graph
      in
      let p = F.plan ~options:fw dse.Accel.Dse.config s.Rt.Runtime.graph in
      Hashtbl.add bases s.Rt.Runtime.model (p, dse.Accel.Dse.table);
      (p, dse.Accel.Dse.table)
  in
  let plan_at i grant scale =
    let s = specs.(i) in
    let b, table = base s in
    let p =
      if scale = 1. && grant >= b.F.tensor_sram_bytes then b
      else
        F.finish ~stall_scale:scale
          (F.allocate ~capacity_bytes:grant
             (F.prepare ~options:fw b.F.config table s.Rt.Runtime.graph))
    in
    let p = maybe_fuse p in
    (i, grant, p, isolated p)
  in
  let admitted =
    List.concat
      (List.mapi
         (fun i (t : Rt.Report.tenant_report) ->
           match t.Rt.Report.status with
           | Rt.Report.Admitted | Rt.Report.Aborted _ ->
             [ plan_at i t.Rt.Report.grant_bytes 1. ]
           | Rt.Report.Queued _ | Rt.Report.Rejected _ -> [])
         report.Rt.Report.tenants)
    |> Array.of_list
  in
  let channels = max 1 options.Rt.Runtime.channels in
  let assign_of plans =
    if channels <= 1 then None
    else begin
      let assignments =
        Array.map
          (fun (_, _, (plan : F.plan), _) ->
            match plan.F.channel_assignment with
            | Some a when a.Lcmm.Channels.channels = channels -> a
            | _ ->
              Lcmm.Channels.assign ~channels plan.F.metric
                ~on_chip:plan.F.allocation.Lcmm.Dnnk.on_chip)
          plans
      in
      Some
        (fun ~owner ~target kind ->
          let cls =
            match kind with
            | Rt.Engine.Prefetch_load | Rt.Engine.Demand_load ->
              Lcmm.Channels.Wt_load
            | Rt.Engine.Weight_stream_x -> Lcmm.Channels.Wt_stream
          in
          Lcmm.Channels.channel_for assignments.(owner) cls target)
    end
  in
  let inputs_of plans =
    Array.map
      (fun (i, grant, (plan : F.plan), iso) ->
        let s = specs.(i) in
        { Rt.Engine.label = s.Rt.Runtime.name;
          metric = plan.F.metric;
          on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
          prefetch = plan.F.prefetch;
          arrival = s.Rt.Runtime.arrival;
          priority = s.Rt.Runtime.priority;
          slack = Rt.Runtime.slack_of plan iso;
          replan =
            Option.map
              (fun _ ~lost_bytes ->
                let surviving = max 0 (grant - lost_bytes) in
                let d =
                  F.degrade ~surviving_bytes:surviving plan s.Rt.Runtime.graph
                in
                let replanned = maybe_fuse d.F.replanned in
                Some
                  { Rt.Engine.deg_on_chip =
                      replanned.F.allocation.Lcmm.Dnnk.on_chip;
                    deg_prefetch = replanned.F.prefetch;
                    deg_pinned_bytes = used_bytes replanned;
                    deg_evicted_bytes = d.F.evicted_bytes;
                    deg_surviving_bytes = surviving })
              fault_spec })
      plans
  in
  let arbitration = options.Rt.Runtime.arbitration in
  let search plans =
    let outcome =
      Rt.Optimizer.search ~hp_first:(arbitration = Rt.Arbiter.Priority)
        ~arbitration ~channels ?assign:(assign_of plans)
        ~make_faults:(fun () -> Option.map Fault.Injector.create fault_spec)
        ~isos:(Array.map (fun (_, _, _, iso) -> iso) plans)
        (inputs_of plans)
    in
    on_search outcome;
    outcome
  in
  let scales_of plans (outcome : Rt.Optimizer.outcome) =
    Array.mapi
      (fun k (_, _, _, (iso : Sim.Engine.run)) ->
        let tr = outcome.Rt.Optimizer.result.Rt.Engine.tenants.(k) in
        if iso.Sim.Engine.total > 0. then
          Float.max 1. (tr.Rt.Engine.latency /. iso.Sim.Engine.total)
        else 1.)
      plans
  in
  let best = ref None and history = ref [] and converged = ref false in
  let plans = ref admitted in
  let prev_scales = ref (Array.map (fun _ -> 1.) admitted) in
  let round = ref 0 in
  while !round < schedule_rounds && not !converged do
    let outcome = search !plans in
    let m = outcome.Rt.Optimizer.result.Rt.Engine.makespan in
    history := m :: !history;
    let improved =
      match !best with
      | None -> true
      | Some ((bo : Rt.Optimizer.outcome), _) ->
        let bm = bo.Rt.Optimizer.result.Rt.Engine.makespan in
        m < bm
        || (m = bm && outcome.Rt.Optimizer.hp_slowdown < bo.Rt.Optimizer.hp_slowdown)
    in
    if improved then best := Some (outcome, !plans);
    if !round > 0 && not improved then converged := true
    else begin
      let scales = scales_of !plans outcome in
      if
        Array.for_all2 (fun s p -> Float.abs (s -. p) <= 1e-9) scales !prev_scales
      then converged := true
      else begin
        if !round + 1 < schedule_rounds then
          plans :=
            Array.mapi
              (fun k ((i, grant, _, _) as t) ->
                if scales.(k) > 1. +. 1e-9 then plan_at i grant scales.(k) else t)
              !plans;
        prev_scales := scales
      end
    end;
    incr round
  done;
  let outcome, final = Option.get !best in
  let sim = outcome.Rt.Optimizer.result in
  let runs = Hashtbl.create 8 in
  Array.iteri
    (fun k (i, _, plan, iso) ->
      Hashtbl.add runs i (plan, iso, sim.Rt.Engine.tenants.(k)))
    final;
  let tenants =
    List.mapi
      (fun i (t : Rt.Report.tenant_report) ->
        match Hashtbl.find_opt runs i with
        | None -> t
        | Some (plan, (iso : Sim.Engine.run), (tr : Rt.Engine.tenant_run)) ->
          let iso_total = iso.Sim.Engine.total in
          let f = tr.Rt.Engine.faults in
          { t with
            Rt.Report.status =
              (match f.Rt.Engine.aborted with
              | Some reason -> Rt.Report.Aborted reason
              | None -> Rt.Report.Admitted);
            sram_used_bytes =
              (match f.Rt.Engine.pinned_after with
              | Some b -> b
              | None -> used_bytes plan);
            isolated_ms = iso_total *. 1e3;
            latency_ms = tr.Rt.Engine.latency *. 1e3;
            finish_ms = tr.Rt.Engine.finish *. 1e3;
            slowdown =
              (if iso_total > 0. then tr.Rt.Engine.latency /. iso_total else 1.);
            prefetch_wait_ms = tr.Rt.Engine.prefetch_wait *. 1e3;
            ddr_mb = tr.Rt.Engine.ddr_bytes /. 1e6;
            faults = f })
      report.Rt.Report.tenants
  in
  let makespan = sim.Rt.Engine.makespan in
  { report with
    Rt.Report.makespan_ms = makespan *. 1e3;
    bus_busy_fraction =
      (if makespan > 0. then
         List.fold_left
           (fun acc (seg : Rt.Engine.segment) ->
             acc
             +. ((seg.Rt.Engine.seg_end -. seg.Rt.Engine.seg_start)
                *. Float.min 1. seg.Rt.Engine.utilization))
           0. sim.Rt.Engine.timeline
         /. makespan
       else 0.);
    tenants;
    timeline = sim.Rt.Engine.timeline;
    channels;
    channel_timelines = sim.Rt.Engine.channel_timelines;
    schedule =
      Some
        { Rt.Report.sched_rounds = !round;
          sched_history_ms = List.rev_map (fun m -> m *. 1e3) !history;
          sched_converged = !converged;
          sched_chosen = outcome.Rt.Optimizer.chosen;
          sched_candidates =
            List.map (fun (l, m) -> (l, m *. 1e3)) outcome.Rt.Optimizer.candidates } }

(* A co-iteration round whose engine inputs repeat the previous round's
   reuses its search instead of running it again.  The report must not
   notice: on every mix, at one and two domains, [Runtime.run]'s JSON
   equals the always-search reference byte for byte.  The mixes cover
   both arbitrations, mixes whose second round repeats its inputs,
   fusion with two channels (each round's fused metrics are fresh but
   equal in content, so the squeezenet + inception_v4 mix reuses its
   first search), the ci fault spec (faults opt out of reuse), and a
   generated fan graph whose scaled replan prunes a prefetch: its
   second round searches new inputs and improves, its third repeats
   the second's. *)
let test_search_reuse_exact () =
  let optimized ?(channels = 1) ?(fusion = false) ?faults arbitration =
    { Rt.Runtime.default_options with
      scheduler = Rt.Scheduler.Optimized;
      arbitration;
      channels;
      fw_options = { F.default_options with F.fusion };
      faults }
  in
  let ci_faults =
    match
      Fault.Spec.of_string
        "seed=42,stall:0.1:0.3,fail:0.05,droop@2:5:0.5,bankloss@3:4m"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let fair = Rt.Arbiter.Fair_share and prio = Rt.Arbiter.Priority in
  let fan =
    let g =
      Check.Gen.sized_graph ~family:Check.Gen.Fan
        (Random.State.make [| 3; 96 |])
        ~nodes:96
    in
    List.init 4 (fun k -> spec "fan96" k g)
  in
  (match (Rt.Runtime.run (optimized fair) fan).Rt.Report.schedule with
  | Some s ->
    Alcotest.(check int) "fan/96 x4 runs three rounds" 3 s.Rt.Report.sched_rounds
  | None -> Alcotest.fail "optimized run without schedule telemetry");
  let cases =
    [ ("resnet50 x2", optimized fair, mix [ ("resnet50", 2, 0) ]);
      ( "googlenet!x2 + alexnet x2", optimized prio,
        mix [ ("googlenet", 2, 0); ("alexnet", 2, 1) ] );
      ( "squeezenet!x2 + inception_v4 x2", optimized prio,
        mix [ ("squeezenet", 2, 0); ("inception_v4", 2, 1) ] );
      ( "mobilenet_v2! + resnet50 + vgg16", optimized prio,
        mix [ ("mobilenet_v2", 1, 0); ("resnet50", 1, 1); ("vgg16", 1, 1) ] );
      ( "squeezenet!x2 + inception_v4 x2, fusion, 2 channels",
        optimized ~channels:2 ~fusion:true prio,
        mix [ ("squeezenet", 2, 0); ("inception_v4", 2, 1) ] );
      ( "squeezenet!x2 + alexnet, fusion, 2 channels",
        optimized ~channels:2 ~fusion:true prio,
        mix [ ("squeezenet", 2, 0); ("alexnet", 1, 1) ] );
      ( "alexnet x2 + squeezenet, ci faults", optimized ~faults:ci_faults fair,
        mix [ ("alexnet", 2, 0); ("squeezenet", 1, 0) ] );
      ("gen fan/96 x4", optimized fair, fan) ]
  in
  let json r = Dnn_serial.Json.to_string (Rt.Report.to_json r) in
  let pool = Lcmm.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Lcmm.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (label, options, specs) ->
          let seq = Rt.Runtime.run options specs in
          let expected = json (reference_optimized options specs seq) in
          Alcotest.(check string) (label ^ ", 1 domain") expected (json seq);
          Alcotest.(check string) (label ^ ", 2 domains") expected
            (json (Rt.Runtime.run ~pool options specs)))
        cases)

(* golden/search_candidates.golden pins every [Optimizer.search] the
   co-iteration makes on the ten runtime-mix mixes (perfbench's
   runtime-mix, optimized scheduler, default options): per search, the
   chosen label and every candidate's label and makespan ([%h]), in
   evaluation order.  The beam's tie order decides which orders are
   proposed and in which slot, so a beam that broke ties differently
   changes these lines even where the winner stays the same. *)
let search_candidate_lines () =
  let fair = Rt.Arbiter.Fair_share and prio = Rt.Arbiter.Priority in
  let mixes =
    [ ("alexnet x2", fair, [ ("alexnet", 2, 0) ]);
      ("googlenet x2", fair, [ ("googlenet", 2, 0) ]);
      ("vgg16 x2", fair, [ ("vgg16", 2, 0) ]);
      ("resnet50 x2", fair, [ ("resnet50", 2, 0) ]);
      ("googlenet + vgg16", fair, [ ("googlenet", 1, 0); ("vgg16", 1, 0) ]);
      ("resnet50! + vgg16 x2", prio, [ ("resnet50", 1, 0); ("vgg16", 2, 1) ]);
      ( "googlenet!x2 + alexnet x2", prio,
        [ ("googlenet", 2, 0); ("alexnet", 2, 1) ] );
      ( "mobilenet! + resnet152 + vgg16", prio,
        [ ("mobilenet_v2", 1, 0); ("resnet152", 1, 1); ("vgg16", 1, 1) ] );
      ( "squeezenet!x2 + inception x2", prio,
        [ ("squeezenet", 2, 0); ("inception_v4", 2, 1) ] );
      ( "alexnet! + vgg16 + resnet50", prio,
        [ ("alexnet", 1, 0); ("vgg16", 1, 1); ("resnet50", 1, 1) ] ) ]
  in
  List.concat_map
    (fun (label, arbitration, parts) ->
      let options =
        { Rt.Runtime.default_options with
          scheduler = Rt.Scheduler.Optimized;
          arbitration }
      in
      let specs = mix parts in
      let lines = ref [] in
      let on_search (o : Rt.Optimizer.outcome) =
        lines :=
          Printf.sprintf "%s/search%d chosen=%s %s" label (List.length !lines)
            o.Rt.Optimizer.chosen
            (String.concat " "
               (List.map
                  (fun (l, m) -> Printf.sprintf "%s:%h" l m)
                  o.Rt.Optimizer.candidates))
          :: !lines
      in
      ignore
        (reference_optimized ~on_search options specs
           (Rt.Runtime.run options specs));
      List.rev !lines)
    mixes

let test_search_candidates_golden () =
  let lines = search_candidate_lines () in
  let expected = Helpers.read_lines "golden/search_candidates.golden" in
  Alcotest.(check int) "line count" (List.length expected) (List.length lines);
  List.iter2
    (fun e a ->
      if e <> a then Alcotest.failf "search changed: want %s, got %s" e a)
    expected lines

(* Reuse rests on [Optimizer.search] being a function of its inputs:
   two calls on equal inputs return equal outcomes, with and without a
   pool. *)
let test_search_equal_inputs () =
  let _, g_plan, g_iso = compile "googlenet" in
  let _, a_plan, a_iso = compile "alexnet" in
  let tenants = [| (g_plan, g_iso, 0); (g_plan, g_iso, 0); (a_plan, a_iso, 1) |] in
  let inputs () =
    Array.mapi
      (fun k ((plan : F.plan), (iso : Sim.Engine.run), priority) ->
        { Rt.Engine.label = Printf.sprintf "t%d" k;
          metric = plan.F.metric;
          on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
          prefetch = plan.F.prefetch;
          arrival = 0.;
          priority;
          slack = Rt.Runtime.slack_of plan iso;
          replan = None })
      tenants
  in
  let isos = Array.map (fun (_, iso, _) -> iso) tenants in
  let search ?pool () =
    Rt.Optimizer.search ?pool ~hp_first:true ~arbitration:Rt.Arbiter.Priority
      ~channels:1 ~isos (inputs ())
  in
  let first = search () in
  Alcotest.(check bool) "equal outcomes without a pool" true (first = search ());
  let pool = Lcmm.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Lcmm.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "equal outcomes on a pool" true
        (first = search ~pool () && search ~pool () = search ~pool ()))

(* --- engine exactness golden --- *)

(* golden/engine_runs.golden pins [Engine.run] and [Optimizer.search]
   bit for bit over four zoo mixes, each planned at an equal share of
   the SRAM budget.  Per mix: greedy, EDF and the optimized scheduler
   under a fixed reversed-node rank, under fair-share and priority
   arbitration, over one, two and three DDR channels, with no faults
   and with the ci fault spec (whose bank loss degrades tenant 0).
   Each engine line is a digest of the whole result: per-tenant node
   timings, finish, DDR bytes and fault counters, the aggregate and
   per-channel timelines and the transfer log, floats printed as [%h].
   Each search line carries the chosen label, the winner's digest and
   every candidate's makespan. *)
let engine_golden_lines () =
  let degraded = ref 0 in
  let ci_faults =
    match
      Fault.Spec.of_string
        "seed=42,stall:0.1:0.3,fail:0.05,droop@2:5:0.5,bankloss@3:4m"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let mixes =
    [ ("alexnet x2", [ ("alexnet", 0); ("alexnet", 1) ]);
      ("squeezenet! + googlenet", [ ("squeezenet", 0); ("googlenet", 1) ]);
      ( "alexnet! + squeezenet x2",
        [ ("alexnet", 0); ("squeezenet", 1); ("squeezenet", 1) ] );
      ( "googlenet!x2 + alexnet",
        [ ("googlenet", 0); ("googlenet", 0); ("alexnet", 1) ] ) ]
  in
  let used_bytes (p : F.plan) =
    p.F.allocation.Lcmm.Dnnk.used_blocks * Lcmm.Dnnk.block_bytes
  in
  let compiled = Hashtbl.create 8 in
  let tenants_of parts =
    let share = List.length parts in
    List.mapi
      (fun k (model, priority) ->
        let g, base, _ =
          match Hashtbl.find_opt compiled model with
          | Some c -> c
          | None ->
            let c = compile model in
            Hashtbl.add compiled model c;
            c
        in
        let grant =
          Accel.Config.sram_budget_bytes base.F.config / share
        in
        let plan =
          if grant >= base.F.tensor_sram_bytes then base
          else F.plan_partitioned ~capacity_bytes:grant base.F.config g
        in
        let iso =
          Sim.Engine.simulate ?prefetch:plan.F.prefetch plan.F.metric
            ~on_chip:plan.F.allocation.Lcmm.Dnnk.on_chip
        in
        (Printf.sprintf "%s#%d" model k, g, grant, priority, plan, iso))
      parts
    |> Array.of_list
  in
  let inputs_of ~faulty tenants =
    Array.map
      (fun (label, g, grant, priority, (plan : F.plan), iso) ->
        { Rt.Engine.label;
          metric = plan.F.metric;
          on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
          prefetch = plan.F.prefetch;
          arrival = 0.;
          priority;
          slack = Rt.Runtime.slack_of plan iso;
          replan =
            (if not faulty then None
             else
               Some
                 (fun ~lost_bytes ->
                   let surviving = max 0 (grant - lost_bytes) in
                   let d = F.degrade ~surviving_bytes:surviving plan g in
                   let r = d.F.replanned in
                   Some
                     { Rt.Engine.deg_on_chip = r.F.allocation.Lcmm.Dnnk.on_chip;
                       deg_prefetch = r.F.prefetch;
                       deg_pinned_bytes = used_bytes r;
                       deg_evicted_bytes = d.F.evicted_bytes;
                       deg_surviving_bytes = surviving })) })
      tenants
  in
  let assign_of channels tenants =
    if channels = 1 then None
    else begin
      let a =
        Array.map
          (fun (_, _, _, _, (plan : F.plan), _) ->
            Lcmm.Channels.assign ~channels plan.F.metric
              ~on_chip:plan.F.allocation.Lcmm.Dnnk.on_chip)
          tenants
      in
      Some
        (fun ~owner ~target kind ->
          let cls =
            match kind with
            | Rt.Engine.Prefetch_load | Rt.Engine.Demand_load ->
              Lcmm.Channels.Wt_load
            | Rt.Engine.Weight_stream_x -> Lcmm.Channels.Wt_stream
          in
          Lcmm.Channels.channel_for a.(owner) cls target)
    end
  in
  let digest (r : Rt.Engine.result) =
    let b = Buffer.create 4096 in
    let f x = Printf.bprintf b "%h " x in
    let i x = Printf.bprintf b "%d " x in
    let opt_i = function None -> i (-1) | Some x -> i x in
    let seg (s : Rt.Engine.segment) =
      f s.Rt.Engine.seg_start; f s.Rt.Engine.seg_end; f s.Rt.Engine.utilization
    in
    let kind = function
      | Rt.Engine.Prefetch_load -> 0
      | Rt.Engine.Demand_load -> 1
      | Rt.Engine.Weight_stream_x -> 2
    in
    let binding = function
      | Sim.Engine.Compute -> 0
      | Sim.Engine.Input_stream -> 1
      | Sim.Engine.Weight_stream -> 2
      | Sim.Engine.Output_stream -> 3
    in
    Array.iter
      (fun (t : Rt.Engine.tenant_run) ->
        Printf.bprintf b "%s " t.Rt.Engine.label;
        Array.iter
          (fun (n : Sim.Engine.node_timing) ->
            i n.Sim.Engine.node_id; f n.Sim.Engine.start; f n.Sim.Engine.finish;
            f n.Sim.Engine.wait; i (binding n.Sim.Engine.binding))
          t.Rt.Engine.timings;
        f t.Rt.Engine.finish; f t.Rt.Engine.latency; f t.Rt.Engine.prefetch_wait;
        f t.Rt.Engine.wt_channel_busy; f t.Rt.Engine.ddr_bytes;
        let q = t.Rt.Engine.faults in
        i q.Rt.Engine.retries; i q.Rt.Engine.stalls; i q.Rt.Engine.degraded;
        i q.Rt.Engine.evicted_bytes; opt_i q.Rt.Engine.pinned_after;
        opt_i q.Rt.Engine.surviving_bytes;
        Printf.bprintf b "%s\n" (Option.value q.Rt.Engine.aborted ~default:"-"))
      r.Rt.Engine.tenants;
    f r.Rt.Engine.makespan;
    List.iter seg r.Rt.Engine.timeline;
    i r.Rt.Engine.channels;
    Array.iter (fun segs -> Buffer.add_char b '|'; List.iter seg segs)
      r.Rt.Engine.channel_timelines;
    List.iter
      (fun (x : Rt.Engine.xfer_log) ->
        i x.Rt.Engine.log_owner; i x.Rt.Engine.log_target;
        i (kind x.Rt.Engine.log_kind); i x.Rt.Engine.log_channel;
        f x.Rt.Engine.log_bytes; f x.Rt.Engine.log_load;
        f x.Rt.Engine.log_deadline; f x.Rt.Engine.log_released;
        f x.Rt.Engine.log_started; f x.Rt.Engine.log_finished)
      r.Rt.Engine.transfers;
    Dnn_serial.Codec.digest_string (Buffer.contents b)
  in
  let rank ~owner ~target kind =
    let k =
      match kind with
      | Rt.Engine.Prefetch_load -> 0
      | Rt.Engine.Demand_load -> 1
      | Rt.Engine.Weight_stream_x -> 2
    in
    float_of_int ((-target * 3) - k) +. (0.25 *. float_of_int owner)
  in
  let lines =
    List.concat_map
      (fun (mix, parts) ->
        let tenants = tenants_of parts in
        let isos = Array.map (fun (_, _, _, _, _, iso) -> iso) tenants in
        List.concat_map
          (fun (arb_label, arbitration) ->
            List.concat_map
              (fun channels ->
                let assign = assign_of channels tenants in
                List.concat_map
                  (fun (fault_label, spec) ->
                    let faulty = Option.is_some spec in
                    let inputs = inputs_of ~faulty tenants in
                    let make_faults () = Option.map Fault.Injector.create spec in
                    let key what =
                      Printf.sprintf "%s/%s/%s/c%d/%s" mix what arb_label channels
                        fault_label
                    in
                    let runs =
                      List.map
                        (fun (label, scheduler, rank) ->
                          let r =
                            Rt.Engine.run ~arbitration ~scheduler ~channels
                              ?assign ?rank ?faults:(make_faults ()) inputs
                          in
                          if
                            Array.exists
                              (fun (t : Rt.Engine.tenant_run) ->
                                t.Rt.Engine.faults.Rt.Engine.degraded > 0)
                              r.Rt.Engine.tenants
                          then incr degraded;
                          Printf.sprintf "%s %s" (key label) (digest r))
                        [ ("greedy", Rt.Scheduler.Greedy, None);
                          ("edf", Rt.Scheduler.Edf, None);
                          ("optimized", Rt.Scheduler.Optimized, Some rank) ]
                    in
                    let o =
                      Rt.Optimizer.search
                        ~hp_first:(arbitration = Rt.Arbiter.Priority)
                        ~arbitration ~channels ?assign ~make_faults ~isos inputs
                    in
                    let search =
                      Printf.sprintf "%s chosen=%s %s %s" (key "search")
                        o.Rt.Optimizer.chosen (digest o.Rt.Optimizer.result)
                        (String.concat " "
                           (List.map
                              (fun (l, m) -> Printf.sprintf "%s:%h" l m)
                              o.Rt.Optimizer.candidates))
                    in
                    runs @ [ search ])
                  [ ("quiet", None); ("faults", Some ci_faults) ])
              [ 1; 2; 3 ])
          [ ("fair", Rt.Arbiter.Fair_share); ("priority", Rt.Arbiter.Priority) ])
      mixes
  in
  (lines, !degraded)

let test_engine_golden () =
  let lines, degraded = engine_golden_lines () in
  let expected = Helpers.read_lines "golden/engine_runs.golden" in
  Alcotest.(check int) "line count" (List.length expected) (List.length lines);
  List.iter2
    (fun e a ->
      if e <> a then Alcotest.failf "engine run changed: want %s, got %s" e a)
    expected lines;
  Alcotest.(check bool) "a faulted run degrades" true (degraded > 0)

(* --- runtime report goldens --- *)

(* The two committed runtime reports the reuse rule can move, as
   [lcmm runtime --json] writes them, at one and two planner domains:
   [--tenants alexnet:2,squeezenet:1 --fusion] and [--tenants
   squeezenet:2:0,inception_v4:2:1 --scheduler optimized --arbitration
   priority --fusion --channels 2]. *)
let test_runtime_goldens () =
  let fusion ?(channels = 1) ?(scheduler = Rt.Scheduler.Edf)
      ?(arbitration = Rt.Arbiter.Fair_share) () =
    { Rt.Runtime.default_options with
      scheduler;
      arbitration;
      channels;
      fw_options = { F.default_options with F.fusion = true } }
  in
  let cases =
    [ ( "golden/runtime_fusion.golden.json", fusion (),
        mix [ ("alexnet", 2, 0); ("squeezenet", 1, 0) ] );
      ( "golden/runtime_optimized.golden.json",
        fusion ~channels:2 ~scheduler:Rt.Scheduler.Optimized
          ~arbitration:Rt.Arbiter.Priority (),
        mix [ ("squeezenet", 2, 0); ("inception_v4", 2, 1) ] ) ]
  in
  let json r =
    Dnn_serial.Json.to_string ~indent:2 (Rt.Report.to_json r) ^ "\n"
  in
  let pool = Lcmm.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Lcmm.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (path, options, specs) ->
          let expected = In_channel.with_open_text path In_channel.input_all in
          Alcotest.(check string) (path ^ ", 1 domain") expected
            (json (Rt.Runtime.run options specs));
          Alcotest.(check string) (path ^ ", 2 domains") expected
            (json (Rt.Runtime.run ~pool options specs)))
        cases)

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
    Alcotest.test_case "search reuse = always-search reference" `Slow
      test_search_reuse_exact;
    Alcotest.test_case "search equal inputs, equal outcomes" `Slow
      test_search_equal_inputs;
    Alcotest.test_case "engine runs pinned" `Quick test_engine_golden;
    Alcotest.test_case "search candidates pinned" `Slow
      test_search_candidates_golden;
    Alcotest.test_case "runtime goldens pinned" `Quick test_runtime_goldens;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    prop_policy_folds_match_lists;
    Alcotest.test_case "engine run allocation bounded" `Quick
      test_engine_allocation_bounded;
    Alcotest.test_case "search allocation bounded" `Quick
      test_search_allocation_bounded ]
