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

let schedule_rounds = 3

(* One compiled model, shared by every replica of the same zoo name: the
   LCMM design point, the unconstrained plan and its isolated run, and
   the resource appetite the admission controller sees. *)
type compiled = {
  config : Config.t;
  base : F.plan;
  base_iso : Sim.Engine.run;
  demand : Admission.demand;
}

let used_bytes (p : F.plan) =
  p.F.allocation.Lcmm.Dnnk.used_blocks * Lcmm.Dnnk.block_bytes

(* Fused-layer/weight-streaming pass-through: when the tenant's planner
   options ask for fusion, every plan the runtime consumes — initial
   compile, per-grant replan, degraded-mode replan — is the effective
   plan of the fusion pass.  The engine needs no fusion knowledge: the
   effective metric and extended allocation price segment-internal
   transfers at zero and streamed weights at their steady-state DDR
   rate.  With the flag off the plan passes through untouched. *)
let maybe_fuse (p : F.plan) =
  if p.F.options.F.fusion then
    Lcmm_fusion.Fusion.effective_plan (Lcmm_fusion.Fusion.apply p)
  else p

let isolated (p : F.plan) =
  Sim.Engine.simulate ?prefetch:p.F.prefetch p.F.metric
    ~on_chip:p.F.allocation.Lcmm.Dnnk.on_chip

let compile_model options g =
  let dse =
    Accel.Dse.run ~device:options.device ~style:Config.Lcmm options.dtype g
  in
  let config = dse.Accel.Dse.config in
  let base = maybe_fuse (F.plan ~options:options.fw_options config g) in
  let base_iso = isolated base in
  let traffic =
    Lcmm.Traffic.of_allocation base.F.metric
      ~on_chip:base.F.allocation.Lcmm.Dnnk.on_chip
  in
  let bandwidth =
    if base_iso.Sim.Engine.total > 0. then
      float_of_int (Lcmm.Traffic.total_bytes traffic)
      /. base_iso.Sim.Engine.total
    else 0.
  in
  {
    config;
    base;
    base_iso;
    demand =
      { Admission.sram_bytes = max (used_bytes base) base.F.tensor_sram_bytes;
        bandwidth };
  }

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
  let cache : (string, compiled) Hashtbl.t = Hashtbl.create 8 in
  (* Each distinct model compiles once; the distinct compiles are
     independent, so they fan out on the pool.  Results land in the
     cache keyed by model name, making the fill order irrelevant — the
     report is byte-identical to the sequential run. *)
  let unique_specs =
    let seen = Hashtbl.create 8 in
    Array.to_list specs
    |> List.filter (fun s ->
           if Hashtbl.mem seen s.model then false
           else begin
             Hashtbl.add seen s.model ();
             true
           end)
  in
  List.iter
    (fun (model, c) -> Hashtbl.add cache model c)
    (pool_map (fun s -> (s.model, compile_model options s.graph)) unique_specs);
  let compiled = Array.map (fun s -> Hashtbl.find cache s.model) specs in
  let budget_bytes =
    Array.fold_left
      (fun acc c -> min acc (Config.sram_budget_bytes c.config))
      max_int compiled
    |> fun b -> if n = 0 then 0 else b
  in
  (* Three DDR interfaces (if/wt/of) share the board; the admission
     bandwidth envelope is their aggregate. *)
  let board_bandwidth =
    if n = 0 then 0.
    else
      Array.fold_left
        (fun acc c -> Float.min acc (Config.interface_bandwidth c.config))
        Float.max_float compiled
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
      (Array.map (fun i -> compiled.(i).demand) order)
  in
  let decisions = Array.make n (Admission.Queued { reason = "" }) in
  Array.iteri (fun rank i -> decisions.(i) <- decisions_sorted.(rank)) order;
  (* Compile each admitted tenant against its partition share.  A grant
     covering the unconstrained plan's whole budget reuses it verbatim —
     with one tenant this is always the case, which is what makes the
     single-tenant run reproduce [lcmm sim] exactly. *)
  let replan : (string * int, F.plan * Sim.Engine.run) Hashtbl.t =
    Hashtbl.create 8
  in
  (* Pre-solve the distinct (model, grant) replans in parallel: they
     are the expensive admitted-tenant compiles, mutually independent,
     and keyed deterministically, so [partitioned] below always hits
     the table regardless of which domain solved which tenant. *)
  let replan_keys =
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    Array.iteri
      (fun i d ->
        match d with
        | Admission.Admitted { grant_bytes } ->
            let c = compiled.(i) in
            if grant_bytes < c.base.F.tensor_sram_bytes then begin
              let key = (specs.(i).model, grant_bytes) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                acc := (i, grant_bytes) :: !acc
              end
            end
        | _ -> ())
      decisions;
    List.rev !acc
  in
  List.iter
    (fun (key, pi) -> Hashtbl.add replan key pi)
    (pool_map
       (fun (i, grant) ->
         let c = compiled.(i) in
         let p =
           maybe_fuse
             (F.plan_partitioned ~options:options.fw_options
                ~capacity_bytes:grant c.config specs.(i).graph)
         in
         ((specs.(i).model, grant), (p, isolated p)))
       replan_keys);
  let partitioned i grant =
    let c = compiled.(i) in
    if grant >= c.base.F.tensor_sram_bytes then (c.base, c.base_iso)
    else Hashtbl.find replan (specs.(i).model, grant)
  in
  let admitted = ref [] in
  Array.iteri
    (fun i d ->
      match d with
      | Admission.Admitted { grant_bytes } ->
          let plan, iso = partitioned i grant_bytes in
          admitted := (i, grant_bytes, plan, iso) :: !admitted
      | _ -> ())
    decisions;
  let admitted = Array.of_list (List.rev !admitted) in
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
            | Engine.Prefetch_load | Engine.Demand_load ->
              Lcmm.Channels.Wt_load
            | Engine.Weight_stream_x -> Lcmm.Channels.Wt_stream
          in
          Lcmm.Channels.channel_for assignments.(owner) cls target)
    end
  in
  let inputs_of plans =
    Array.map
      (fun (i, grant, (plan : F.plan), iso) ->
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
                  let replanned = maybe_fuse d.F.replanned in
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
          ~isos:(Array.map (fun (_, _, _, iso) -> iso) plans)
          (inputs_of plans)
      in
      let scales_of plans (outcome : Optimizer.outcome) =
        Array.mapi
          (fun k (_, _, _, iso) ->
            let iso_total = iso.Sim.Engine.total in
            let tr = outcome.Optimizer.result.Engine.tenants.(k) in
            if iso_total > 0. then
              Float.max 1. (tr.Engine.latency /. iso_total)
            else 1.)
          plans
      in
      (* Replan a tenant only when contention actually scaled its
         stalls; distinct (model, grant, scale) solves fan out once. *)
      let replan_scaled plans scales =
        let keyed =
          let seen = Hashtbl.create 8 in
          let acc = ref [] in
          Array.iteri
            (fun k (i, grant, _, _) ->
              if scales.(k) > 1. +. 1e-9 then begin
                let key = (specs.(i).model, grant, scales.(k)) in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  acc := (key, (i, grant, scales.(k))) :: !acc
                end
              end)
            plans;
          List.rev !acc
        in
        let solved = Hashtbl.create 8 in
        List.iter
          (fun (key, pi) -> Hashtbl.add solved key pi)
          (pool_map
             (fun (key, (i, grant, scale)) ->
               let c = compiled.(i) in
               let p =
                 maybe_fuse
                   (F.plan_partitioned ~options:options.fw_options
                      ~stall_scale:scale ~capacity_bytes:grant c.config
                      specs.(i).graph)
               in
               (key, (p, isolated p)))
             keyed);
        Array.mapi
          (fun k (i, grant, plan, iso) ->
            if scales.(k) <= 1. +. 1e-9 then (i, grant, plan, iso)
            else
              let plan, iso =
                Hashtbl.find solved (specs.(i).model, grant, scales.(k))
              in
              (i, grant, plan, iso))
          plans
      in
      let best = ref None in
      let history = ref [] in
      let converged = ref false in
      let plans = ref admitted in
      let prev_scales = ref (Array.map (fun _ -> 1.) admitted) in
      let round = ref 0 in
      while !round < schedule_rounds && not !converged do
        let outcome = search !plans in
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
    (fun k (i, grant, plan, iso) ->
      Hashtbl.replace run_of i (grant, plan, iso, sim.Engine.tenants.(k)))
    admitted;
  let tenants =
    Array.to_list
      (Array.mapi
         (fun i s ->
           let demand_bytes = compiled.(i).demand.Admission.sram_bytes in
           match decisions.(i) with
           | Admission.Rejected { reason } ->
               {
                 Report.name = s.name;
                 model = s.model;
                 priority = s.priority;
                 status = Report.Rejected reason;
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
           | Admission.Queued { reason } ->
               {
                 Report.name = s.name;
                 model = s.model;
                 priority = s.priority;
                 status = Report.Queued reason;
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
