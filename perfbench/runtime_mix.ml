(* runtime-mix: the multi-tenant board runtime.  [Runtime.run] with the
   [optimized] scheduler over ten contended tenant mixes (five under
   fair-share arbitration, five under priority arbitration, where the
   optimizer must protect a high-priority tenant).  Each run compiles
   its tenants (design-space exploration, plan, per-grant replans) and
   then searches a DRAM transfer schedule through the runtime's event
   engine — the two parts no other workload exercises.

   The mixes are fixed, so every report is the same for every seed; the
   seed orders the replay.  A pass runs each mix four times and the
   slowest one, "squeezenet!x2 + inception x2", eight: with every mix at
   a tenth of the operations the p90 tail would sit on the edge between
   the slowest mix and the next and jump between them from run to run;
   at a sixth it falls inside the slowest mix's own latencies. *)

module R = Lcmm_runtime
module F = Lcmm.Framework
module H = Harness

(* (label, arbitration, [(model, replicas, priority)]) *)
let mixes =
  let fair = R.Arbiter.Fair_share and prio = R.Arbiter.Priority in
  [| ("alexnet x2", fair, [ ("alexnet", 2, 0) ]);
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
       [ ("alexnet", 1, 0); ("vgg16", 1, 1); ("resnet50", 1, 1) ] ) |]

let specs_of mix =
  List.concat_map
    (fun (model, count, priority) ->
      let graph = Models.Zoo.build model in
      List.init count (fun k ->
          { R.Runtime.name = Printf.sprintf "%s#%d" model k;
            model; graph; priority; arrival = 0. }))
    mix

type state = {
  specs : R.Runtime.spec list array;
  warm : R.Report.t array;  (* the untimed warm pass's reports *)
  digests : string array;   (* their digests *)
  slots : R.Report.t option array;
}

let options scheduler k =
  let _, arbitration, _ = mixes.(k) in
  { R.Runtime.default_options with scheduler; arbitration }

let run_specs specs scheduler k = R.Runtime.run (options scheduler k) specs.(k)

let run_mix st scheduler k = run_specs st.specs scheduler k

let report_digest r = H.digest_json (R.Report.to_json r)

let base = Array.append (H.each ~copies:4 (Array.length mixes)) (Array.make 4 8)

let setup () =
  let specs = Array.map (fun (_, _, mix) -> specs_of mix) mixes in
  (* One untimed run of every mix first, so the timed passes see a
     warmed heap. *)
  let warm =
    Array.mapi (fun k _ -> run_specs specs R.Scheduler.Optimized k) mixes
  in
  { specs;
    warm;
    digests = Array.map report_digest warm;
    slots = Array.make (Array.length base) None }

(* Worst slowdown among the highest-priority tenants. *)
let hp_slowdown (r : R.Report.t) =
  let ts = r.R.Report.tenants in
  let hp =
    List.fold_left (fun acc t -> min acc t.R.Report.priority) max_int ts
  in
  List.fold_left
    (fun acc t ->
      if t.R.Report.priority = hp then Float.max acc t.R.Report.slowdown
      else acc)
    1. ts

(* The layers [Runtime.run] calls, replayed from public functions on the
   same inputs as children of the run's span: per distinct model the
   design-space exploration, base plan and its isolated simulation; per
   distinct (model, grant) below the base plan's footprint the
   partitioned replan and its simulation; then the first schedule
   search round, with one exact engine run of its inputs as the
   search's child.  Later co-iteration rounds (stall-scaled replans and
   searches) are not replayed; they stay in the run's self time.
   Returns the number of transfers the engine run moved. *)
let replay_layers spans ~parent ~req st k (report : R.Report.t) =
  let opts = options R.Scheduler.Optimized k in
  let replay name f = Span.replay spans ~parent ~req name f in
  let specs = Array.of_list st.specs.(k) in
  let compiled = Hashtbl.create 8 in
  Array.iter
    (fun (s : R.Runtime.spec) ->
      if not (Hashtbl.mem compiled s.R.Runtime.model) then begin
        let g = s.R.Runtime.graph in
        let dse =
          replay "accel.dse_ms" (fun () ->
              Accel.Dse.run ~device:opts.R.Runtime.device
                ~style:Accel.Config.Lcmm opts.R.Runtime.dtype g)
        in
        let config = dse.Accel.Dse.config in
        let base =
          replay "framework.plan_ms" (fun () ->
              F.plan ~options:opts.R.Runtime.fw_options config g)
        in
        let iso =
          replay "sim.simulate_ms" (fun () ->
              Sim.Engine.simulate ?prefetch:base.F.prefetch base.F.metric
                ~on_chip:base.F.allocation.Lcmm.Dnnk.on_chip)
        in
        Hashtbl.add compiled s.R.Runtime.model (config, base, iso)
      end)
    specs;
  let replans = Hashtbl.create 8 in
  let admitted =
    List.concat
      (List.mapi
         (fun i (t : R.Report.tenant_report) ->
           match t.R.Report.status with
           | R.Report.Admitted ->
             let s = specs.(i) in
             let config, base, base_iso =
               Hashtbl.find compiled s.R.Runtime.model
             in
             let grant = t.R.Report.grant_bytes in
             let plan, iso =
               if grant >= base.F.tensor_sram_bytes then (base, base_iso)
               else
                 match Hashtbl.find_opt replans (s.R.Runtime.model, grant) with
                 | Some pi -> pi
                 | None ->
                   let p =
                     replay "framework.replan_ms" (fun () ->
                         F.plan_partitioned
                           ~options:opts.R.Runtime.fw_options
                           ~capacity_bytes:grant config s.R.Runtime.graph)
                   in
                   let pi =
                     ( p,
                       replay "sim.simulate_ms" (fun () ->
                           Sim.Engine.simulate ?prefetch:p.F.prefetch
                             p.F.metric
                             ~on_chip:p.F.allocation.Lcmm.Dnnk.on_chip) )
                   in
                   Hashtbl.add replans (s.R.Runtime.model, grant) pi;
                   pi
             in
             [ (s, plan, iso) ]
           | _ -> [])
         report.R.Report.tenants)
    |> Array.of_list
  in
  let slack (p : F.plan) (iso : Sim.Engine.run) target =
    match p.F.prefetch with
    | None -> 0.
    | Some pdg -> (
      match Lcmm.Prefetch.source_of pdg target with
      | Some s ->
        iso.Sim.Engine.timings.(target).Sim.Engine.start
        -. iso.Sim.Engine.timings.(s).Sim.Engine.start
      | None -> 0.)
  in
  let inputs =
    Array.map
      (fun ((s : R.Runtime.spec), (p : F.plan), iso) ->
        { R.Engine.label = s.R.Runtime.name;
          metric = p.F.metric;
          on_chip = p.F.allocation.Lcmm.Dnnk.on_chip;
          prefetch = p.F.prefetch;
          arrival = s.R.Runtime.arrival;
          priority = s.R.Runtime.priority;
          slack = slack p iso;
          replan = None })
      admitted
  in
  let arbitration = opts.R.Runtime.arbitration in
  let _, t0, t1 =
    Clock.time (fun () ->
        R.Optimizer.search ~hp_first:(arbitration = R.Arbiter.Priority)
          ~arbitration ~channels:1
          ~isos:(Array.map (fun (_, _, iso) -> iso) admitted)
          inputs)
  in
  let search = Span.add spans ~parent ~replay:true ~req "runtime.search_ms" t0 t1 in
  let engine =
    Span.replay spans ~parent:search ~req "runtime.engine_ms" (fun () ->
        R.Engine.run ~arbitration ~scheduler:R.Scheduler.Edf inputs)
  in
  List.length engine.R.Engine.transfers

let run ~seed ~seconds ~trace ~reference =
  let transfers = ref 0 and rounds = ref 0 and candidates = ref 0 in
  let traced_ops = ref 0 in
  let traced st spans ~slot ~req k =
    incr traced_ops;
    let run_id = ref (-1) in
    let report =
      Span.within spans ~req "op" (fun root ->
          Span.within spans ~parent:root ~req "runtime.run_ms" (fun id ->
              run_id := id;
              run_mix st R.Scheduler.Optimized k))
    in
    transfers :=
      !transfers + replay_layers spans ~parent:!run_id ~req st k report;
    (match report.R.Report.schedule with
    | Some s ->
      rounds := !rounds + s.R.Report.sched_rounds;
      candidates := !candidates + List.length s.R.Report.sched_candidates
    | None -> ());
    st.slots.(slot) <- Some report
  in
  let check_pass st seq tally =
    H.check_digests ~digest:report_digest ~expected:st.digests ~seq st.slots
      tally
  in
  let st, r =
    H.run ~setup ~dispose:ignore
      ~order:(fun _ -> H.pass_order ~seed ~tag:6 base)
      ~kinds:(fun _ -> Array.map (fun (label, _, _) -> label) mixes)
      ~nominal_pass_s:1.8
      ~op:(fun st ~slot k ->
        st.slots.(slot) <- Some (run_mix st R.Scheduler.Optimized k))
      ~traced ~check_pass
      ~remainder:("runtime.run_ms", "runtime.overhead_ms")
      ~trace_path:(Printf.sprintf ".perfbench/trace-runtime-mix-%d.json" seed)
      ~seconds ~trace ()
  in
  let tally = r.H.tally in
  H.check_reference ~reference st.digests tally;
  (* Outside the timed phase: the optimized schedule must not lose to
     either baseline on any mix.  A mix where it does counts as failed. *)
  let baseline =
    Array.mapi
      (fun k (opt : R.Report.t) ->
        let g = run_mix st R.Scheduler.Greedy k
        and e = run_mix st R.Scheduler.Edf k in
        let best = Float.min g.R.Report.makespan_ms e.R.Report.makespan_ms in
        Stats.record tally ~ok:(opt.R.Report.makespan_ms <= best);
        best)
      st.warm
  in
  let geo f = Stats.geomean (Array.to_list (Array.mapi f st.warm)) in
  let simulated =
    [ H.metric "speedup_geomean" "x"
        (geo (fun k r -> baseline.(k) /. r.R.Report.makespan_ms));
      H.metric "ddr_mb_geomean" "MB"
        (Stats.geomean
           (List.concat_map
              (fun (r : R.Report.t) ->
                List.filter_map
                  (fun t ->
                    if t.R.Report.status = R.Report.Admitted then
                      Some t.R.Report.ddr_mb
                    else None)
                  r.R.Report.tenants)
              (Array.to_list st.warm)));
      H.metric "makespan_geomean_ms" "ms-simulated"
        (geo (fun _ r -> r.R.Report.makespan_ms));
      H.metric "hp_slowdown_geomean" "x" (geo (fun _ r -> hp_slowdown r)) ]
  in
  let per_op v = float_of_int v /. float_of_int (max 1 !traced_ops) in
  let counts =
    if not trace then []
    else
      [ H.metric "runtime.rounds" "count" (per_op !rounds);
        H.metric "runtime.candidates" "count" (per_op !candidates);
        H.metric "runtime.transfers" "count" (per_op !transfers) ]
  in
  ({ r with H.simulated; layers = r.H.layers @ counts }, Some st.digests)
