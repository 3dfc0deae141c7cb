module F = Lcmm.Framework
module Config = Accel.Config

type spec = {
  name : string;
  model : string;
  graph : Dnn_graph.Graph.t;
  priority : int;
  arrival : float;
}

type options = {
  dtype : Tensor.Dtype.t;
  device : Fpga.Device.t;
  arbitration : Arbiter.t;
  scheduler : Scheduler.t;
  channels : int;
  partition : Partition.policy;
  overcommit : float;
  fw_options : F.options;
  faults : Fault.Spec.t option;
}

let default_options =
  {
    dtype = Tensor.Dtype.I16;
    device = Fpga.Device.vu9p;
    arbitration = Arbiter.Fair_share;
    scheduler = Scheduler.Edf;
    channels = 1;
    partition = Partition.Equal;
    overcommit = 4.0;
    fw_options = F.default_options;
    faults = None;
  }

(* Plan/schedule co-iteration bound for the [optimized] scheduler: each
   round searches a schedule, feeds per-tenant slowdowns back as planner
   stall scales, and replans; stops early when a round fails to improve
   or the scales reach a fixpoint.  Ignored by [greedy]/[edf].

   A round whose plans equal the previous round's reuses that round's
   [Optimizer.outcome] instead of searching again — [Optimizer.search]
   is deterministic in its engine inputs, so the report is unchanged and
   still counts the round, its makespan and the convergence.  Plans are
   equal when, for every admitted tenant, the plan the engine runs has
   the same metric ([==], else structural [=]: fusion rebuilds it), the
   same PDG ([==]), an [Item_set.equal] on-chip set and an equal channel
   assignment.  Fault injection opts out (the degrade callback closes
   over the whole plan). *)
let schedule_rounds = 3

let used_bytes (p : F.plan) =
  p.F.allocation.Lcmm.Dnnk.used_blocks * Lcmm.Dnnk.block_bytes

(* One solved plan key: the plan the engine runs and its isolated run. *)
type solution = { plan : F.plan; iso : Sim.Engine.run }

let isolated (p : F.plan) =
  Sim.Engine.simulate ?prefetch:p.F.prefetch p.F.metric
    ~on_chip:p.F.allocation.Lcmm.Dnnk.on_chip

(* The resource appetite the admission controller sees for a model:
   the SRAM its unconstrained plan pins and the average DDR bandwidth
   of its isolated run. *)
let demand_of { plan = base; iso } =
  let traffic =
    Lcmm.Traffic.of_allocation base.F.metric
      ~on_chip:base.F.allocation.Lcmm.Dnnk.on_chip
  in
  let bandwidth =
    if iso.Sim.Engine.total > 0. then
      float_of_int (Lcmm.Traffic.total_bytes traffic) /. iso.Sim.Engine.total
    else 0.
  in
  { Admission.sram_bytes = max (used_bytes base) base.F.tensor_sram_bytes;
    bandwidth }

(* Isolated-schedule slack for EDF deadlines: how far the PDG source's
   start precedes the target's start when the tenant runs alone. *)
let slack_of (p : F.plan) (iso : Sim.Engine.run) =
  match p.F.prefetch with
  | None -> fun _ -> 0.
  | Some pdg -> (
      fun target ->
        match Lcmm.Prefetch.source_of pdg target with
        | Some s ->
            iso.Sim.Engine.timings.(target).Sim.Engine.start
            -. iso.Sim.Engine.timings.(s).Sim.Engine.start
        | None -> 0.)

let run ?pool options specs =
  (* A spec with no active board-fault source is normalised away so the
     no-fault path — and its bit-exact output — is completely untouched.
     Transport clauses are tier-level and inert for a board run. *)
  let fault_spec =
    match options.faults with
    | Some s when not (Fault.Spec.has_board_faults s) -> None
    | f -> f
  in
  let injector = Option.map Fault.Injector.create fault_spec in
  let pool_map f xs =
    match pool with
    | None -> List.map f xs
    | Some pool -> Lcmm.Pool.map_list pool f xs
  in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let graph_of = Hashtbl.create 8 in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem graph_of s.model) then
        Hashtbl.add graph_of s.model s.graph)
    specs;
  (* Every plan the run consumes, keyed by (model, grant, stall scale):
     [(m, None, 1.)] is the model's design point and unconstrained plan,
     [(m, Some g, s)] its replan at SRAM grant [g] with unhidden stalls
     scaled by [s].  The planner's stage values are kept too, one
     [prepared] per model and one [allocated] per (model, grant), so a
     scaled key only reruns [finish] and every plan of a model shares
     one metric and one PDG.  Each phase lists the keys it needs and
     [solve]s them: per stage, values already held or repeated are
     dropped, the rest are independent and fan out on the pool, and
     results land by key on the calling domain — so the report is
     byte-identical to the sequential run whichever domain solved
     which key. *)
  let prepared : (string, F.prepared) Hashtbl.t = Hashtbl.create 8 in
  let allocated : (string * int option, F.allocated) Hashtbl.t =
    Hashtbl.create 8
  in
  let solved : (string * int option * float, solution) Hashtbl.t =
    Hashtbl.create 8
  in
  let fill tbl f keys =
    let fresh =
      List.filter
        (fun k -> not (Hashtbl.mem tbl k))
        (List.sort_uniq compare keys)
    in
    List.iter2 (Hashtbl.add tbl) fresh (pool_map f fresh)
  in
  let prepare m =
    let g = Hashtbl.find graph_of m in
    let dse =
      Accel.Dse.run ~device:options.device ~style:Config.Lcmm options.dtype g
    in
    F.prepare ~options:options.fw_options dse.Accel.Dse.config g
  in
  let allocate (m, grant) =
    F.allocate ?capacity_bytes:grant (Hashtbl.find prepared m)
  in
  let finish (m, grant, scale) =
    let plan, _ =
      Lcmm_fusion.Fusion.post
        (F.finish ~stall_scale:scale (Hashtbl.find allocated (m, grant)))
    in
    { plan; iso = isolated plan }
  in
  let solve keys =
    fill prepared prepare (List.map (fun (m, _, _) -> m) keys);
    fill allocated allocate (List.map (fun (m, grant, _) -> (m, grant)) keys);
    fill solved finish keys
  in
  let base_key m = (m, None, 1.) in
  let base m = (Hashtbl.find solved (base_key m)).plan in
  (* A scale-1 grant covering the unconstrained plan's footprint reuses
     it verbatim — with one tenant this is always the case, which is
     what makes the single-tenant run reproduce [lcmm sim] exactly. *)
  let key_of i grant scale =
    let m = specs.(i).model in
    if scale = 1. && grant >= (base m).F.tensor_sram_bytes then base_key m
    else (m, Some grant, scale)
  in
  let tenant i grant key = (i, grant, Hashtbl.find solved key) in
  solve (Hashtbl.fold (fun m _ acc -> base_key m :: acc) graph_of []);
  let demand = Hashtbl.create 8 in
  Hashtbl.iter
    (fun m _ ->
      Hashtbl.add demand m (demand_of (Hashtbl.find solved (base_key m))))
    graph_of;
  let configs = Array.map (fun s -> (base s.model).F.config) specs in
  let budget_bytes =
    Array.fold_left
      (fun acc c -> min acc (Config.sram_budget_bytes c))
      max_int configs
    |> fun b -> if n = 0 then 0 else b
  in
  (* Three DDR interfaces (if/wt/of) share the board; the admission
     bandwidth envelope is their aggregate. *)
  let board_bandwidth =
    if n = 0 then 0.
    else
      Array.fold_left
        (fun acc c -> Float.min acc (Config.interface_bandwidth c))
        Float.max_float configs
      *. 3.
  in
  (* The admission controller wants demands in priority order (stable on
     submission order within a priority level). *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare specs.(a).priority specs.(b).priority with
      | 0 -> compare a b
      | c -> c)
    order;
  let decisions_sorted =
    Admission.decide ~partition:options.partition ~budget_bytes
      ~board_bandwidth ~overcommit:options.overcommit
      (Array.map (fun i -> Hashtbl.find demand specs.(i).model) order)
  in
  let decisions = Array.make n (Admission.Queued { reason = "" }) in
  Array.iteri (fun rank i -> decisions.(i) <- decisions_sorted.(rank)) order;
  (* Plan each admitted tenant against its partition share. *)
  let admitted =
    List.filter_map
      (fun i ->
        match decisions.(i) with
        | Admission.Admitted { grant_bytes } ->
          Some (i, grant_bytes, key_of i grant_bytes 1.)
        | _ -> None)
      (List.init n Fun.id)
  in
  solve (List.map (fun (_, _, key) -> key) admitted);
  let admitted =
    Array.of_list
      (List.map (fun (i, grant, key) -> tenant i grant key) admitted)
  in
  let channels = max 1 options.channels in
  (* Static channel map per admitted tenant: the plan's own assignment
     when the planner already ran the pass at this width, else computed
     here.  [None] at one channel keeps the engine on the aggregate
     fluid-bus path bit for bit. *)
  let assign_of plans =
    if channels <= 1 then None
    else begin
      let assignments =
        Array.map
          (fun (_, _, { plan; _ }) ->
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
            | Engine.Prefetch_load | Engine.Demand_load ->
              Lcmm.Channels.Wt_load
            | Engine.Weight_stream_x -> Lcmm.Channels.Wt_stream
          in
          Lcmm.Channels.channel_for assignments.(owner) cls target)
    end
  in
  let inputs_of plans =
    Array.map
      (fun (i, grant, { plan; iso }) ->
        {
          Engine.label = specs.(i).name;
          metric = plan.F.metric;
          on_chip = plan.F.allocation.Lcmm.Dnnk.on_chip;
          prefetch = plan.F.prefetch;
          arrival = specs.(i).arrival;
          priority = specs.(i).priority;
          slack = slack_of plan iso;
          replan =
            (match injector with
            | None -> None
            | Some _ ->
              (* Degraded-mode callback: evict by reverse benefit-density
                 and re-solve the tenant at what survives of its grant. *)
              Some
                (fun ~lost_bytes ->
                  let surviving = max 0 (grant - lost_bytes) in
                  let d =
                    F.degrade ~surviving_bytes:surviving plan specs.(i).graph
                  in
                  let replanned, _ = Lcmm_fusion.Fusion.post d.F.replanned in
                  Some
                    {
                      Engine.deg_on_chip =
                        replanned.F.allocation.Lcmm.Dnnk.on_chip;
                      deg_prefetch = replanned.F.prefetch;
                      deg_pinned_bytes = used_bytes replanned;
                      deg_evicted_bytes = d.F.evicted_bytes;
                      deg_surviving_bytes = surviving;
                    }));
        })
      plans
  in
  let make_faults () = Option.map Fault.Injector.create fault_spec in
  let sim, admitted, schedule =
    match options.scheduler with
    | Scheduler.Greedy | Scheduler.Edf ->
      let assign = assign_of admitted in
      let sim =
        Engine.run ~arbitration:options.arbitration
          ~scheduler:options.scheduler ~channels ?assign ?faults:injector
          (inputs_of admitted)
      in
      (sim, admitted, None)
    | Scheduler.Optimized ->
      (* Plan/schedule co-iteration: search a schedule for the current
         plans, feed the observed per-tenant slowdowns back into the
         planner as stall scales (contention makes unhidden stalls more
         expensive, shifting the prune and the UMM safety net), replan,
         and search again — bounded rounds, keeping the best round. *)
      let search plans =
        Optimizer.search ?pool
          ~hp_first:(options.arbitration = Arbiter.Priority)
          ~arbitration:options.arbitration ~channels ?assign:(assign_of plans)
          ~make_faults
          ~isos:(Array.map (fun (_, _, s) -> s.iso) plans)
          (inputs_of plans)
      in
      let scales_of plans (outcome : Optimizer.outcome) =
        Array.mapi
          (fun k (_, _, { iso; _ }) ->
            let iso_total = iso.Sim.Engine.total in
            let tr = outcome.Optimizer.result.Engine.tenants.(k) in
            if iso_total > 0. then
              Float.max 1. (tr.Engine.latency /. iso_total)
            else 1.)
          plans
      in
      (* Replan a tenant only when contention actually scaled its
         stalls; a tenant whose scale stayed at 1 keeps its plan. *)
      let replan_scaled plans scales =
        let keys =
          Array.mapi
            (fun k (i, grant, _) ->
              if scales.(k) > 1. +. 1e-9 then Some (key_of i grant scales.(k))
              else None)
            plans
        in
        solve (List.filter_map Fun.id (Array.to_list keys));
        Array.map2
          (fun key ((i, grant, _) as t) ->
            match key with None -> t | Some key -> tenant i grant key)
          keys plans
      in
      (* [search] is deterministic in its engine inputs, and a round
         that does not improve ends the loop, so a round whose plans
         equal the best (previous) round's reuses its outcome.  Equal
         means what the engine reads: the metric ([==], else equal in
         content — fusion rebuilds it), the PDG ([==]: every plan of a
         model shares the prepared one), the on-chip set and the channel
         assignment; the isolated runs and EDF slack follow from them.
         Faults opt out: the degrade callback closes over the whole
         plan. *)
      let same_solution { plan = a; _ } { plan = b; _ } =
        (a.F.metric == b.F.metric || a.F.metric = b.F.metric)
        && Option.equal ( == ) a.F.prefetch b.F.prefetch
        && Lcmm.Metric.Item_set.equal a.F.allocation.Lcmm.Dnnk.on_chip
             b.F.allocation.Lcmm.Dnnk.on_chip
        && a.F.channel_assignment = b.F.channel_assignment
      in
      let same_inputs prev plans =
        injector = None
        && Array.for_all2
             (fun (_, _, a) (_, _, b) -> same_solution a b)
             prev plans
      in
      let best = ref None in
      let history = ref [] in
      let converged = ref false in
      let plans = ref admitted in
      let prev_scales = ref (Array.map (fun _ -> 1.) admitted) in
      let round = ref 0 in
      while !round < schedule_rounds && not !converged do
        let outcome =
          match !best with
          | Some (outcome, prev) when same_inputs prev !plans -> outcome
          | _ -> search !plans
        in
        history := outcome.Optimizer.result.Engine.makespan :: !history;
        let improved =
          match !best with
          | None ->
            best := Some (outcome, !plans);
            true
          | Some ((bo : Optimizer.outcome), _) ->
            let bm = bo.Optimizer.result.Engine.makespan in
            let m = outcome.Optimizer.result.Engine.makespan in
            if
              m < bm
              || (m = bm && outcome.Optimizer.hp_slowdown < bo.Optimizer.hp_slowdown)
            then begin
              best := Some (outcome, !plans);
              true
            end
            else false
        in
        if !round > 0 && not improved then converged := true
        else begin
          let scales = scales_of !plans outcome in
          if
            Array.for_all2
              (fun s p -> Float.abs (s -. p) <= 1e-9)
              scales !prev_scales
          then converged := true
          else begin
            if !round + 1 < schedule_rounds then
              plans := replan_scaled !plans scales;
            prev_scales := scales
          end
        end;
        incr round
      done;
      let outcome, final_plans =
        match !best with Some b -> b | None -> assert false
      in
      let schedule =
        Some
          {
            Report.sched_rounds = !round;
            sched_history_ms = List.rev_map (fun m -> m *. 1e3) !history;
            sched_converged = !converged;
            sched_chosen = outcome.Optimizer.chosen;
            sched_candidates =
              List.map
                (fun (l, m) -> (l, m *. 1e3))
                outcome.Optimizer.candidates;
          }
      in
      (outcome.Optimizer.result, final_plans, schedule)
  in
  let run_of = Hashtbl.create 8 in
  Array.iteri
    (fun k (i, grant, { plan; iso }) ->
      Hashtbl.replace run_of i (grant, plan, iso, sim.Engine.tenants.(k)))
    admitted;
  let tenants =
    Array.to_list
      (Array.mapi
         (fun i s ->
           let demand_bytes =
             (Hashtbl.find demand s.model).Admission.sram_bytes
           in
           match decisions.(i) with
           | (Admission.Rejected { reason } | Admission.Queued { reason }) as d
             ->
               {
                 Report.name = s.name;
                 model = s.model;
                 priority = s.priority;
                 status =
                   (match d with
                   | Admission.Rejected _ -> Report.Rejected reason
                   | _ -> Report.Queued reason);
                 arrival_ms = s.arrival *. 1e3;
                 grant_bytes = 0;
                 demand_bytes;
                 sram_used_bytes = 0;
                 isolated_ms = 0.;
                 latency_ms = 0.;
                 finish_ms = 0.;
                 slowdown = 0.;
                 prefetch_wait_ms = 0.;
                 ddr_mb = 0.;
                 faults = Report.no_faults;
               }
           | Admission.Admitted { grant_bytes } ->
               let _, plan, iso, tr = Hashtbl.find run_of i in
               let iso_total = iso.Sim.Engine.total in
               let f = tr.Engine.faults in
               {
                 Report.name = s.name;
                 model = s.model;
                 priority = s.priority;
                 status =
                   (match f.Engine.aborted with
                   | Some reason -> Report.Aborted reason
                   | None -> Report.Admitted);
                 arrival_ms = s.arrival *. 1e3;
                 grant_bytes;
                 demand_bytes;
                 sram_used_bytes =
                   (match f.Engine.pinned_after with
                   | Some b -> b
                   | None -> used_bytes plan);
                 isolated_ms = iso_total *. 1e3;
                 latency_ms = tr.Engine.latency *. 1e3;
                 finish_ms = tr.Engine.finish *. 1e3;
                 slowdown =
                   (if iso_total > 0. then tr.Engine.latency /. iso_total
                    else 1.);
                 prefetch_wait_ms = tr.Engine.prefetch_wait *. 1e3;
                 ddr_mb = tr.Engine.ddr_bytes /. 1e6;
                 faults = f;
               })
         specs)
  in
  let bus_busy_fraction =
    if sim.Engine.makespan > 0. then
      List.fold_left
        (fun acc (seg : Engine.segment) ->
          acc
          +. ((seg.Engine.seg_end -. seg.Engine.seg_start)
             *. Float.min 1. seg.Engine.utilization))
        0. sim.Engine.timeline
      /. sim.Engine.makespan
    else 0.
  in
  {
    Report.device = options.device.Fpga.Device.device_name;
    dtype = Tensor.Dtype.to_string options.dtype;
    arbitration = options.arbitration;
    scheduler = options.scheduler;
    partition = options.partition;
    budget_bytes;
    board_bandwidth;
    overcommit = options.overcommit;
    makespan_ms = sim.Engine.makespan *. 1e3;
    bus_busy_fraction;
    tenants;
    timeline = sim.Engine.timeline;
    channels;
    channel_timelines = sim.Engine.channel_timelines;
    schedule;
    faults = fault_spec;
  }
