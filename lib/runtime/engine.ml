module Metric = Lcmm.Metric
module Latency = Accel.Latency
module NM = Sim.Node_model
module EQ = Sim.Event_queue

(* What a tenant resumes with after an SRAM bank loss: the degraded
   allocation and PDG from the framework's evict-and-replan pass, plus
   the accounting the report surfaces. *)
type degraded_plan = {
  deg_on_chip : Metric.Item_set.t;
  deg_prefetch : Lcmm.Prefetch.t option;
  deg_pinned_bytes : int;     (* what the degraded plan pins *)
  deg_evicted_bytes : int;    (* emergency-evicted virtual buffer bytes *)
  deg_surviving_bytes : int;  (* capacity the replan was solved against *)
}

type tenant_input = {
  label : string;
  metric : Metric.t;
  on_chip : Metric.Item_set.t;
  prefetch : Lcmm.Prefetch.t option;
  arrival : float;
  priority : int;
  slack : int -> float;
  replan : (lost_bytes:int -> degraded_plan option) option;
}

type fault_stats = {
  retries : int;              (* failed transfer attempts that were retried *)
  stalls : int;               (* injected transfer-start stalls *)
  degraded : int;             (* bank-loss events absorbed by replanning *)
  evicted_bytes : int;
  pinned_after : int option;  (* pinned bytes after the last degrade *)
  surviving_bytes : int option;
  aborted : string option;
}

type tenant_run = {
  label : string;
  timings : Sim.Engine.node_timing array;
  finish : float;
  latency : float;
  prefetch_wait : float;
  wt_channel_busy : float;
  ddr_bytes : float;
  faults : fault_stats;
}

type segment = { seg_start : float; seg_end : float; utilization : float }

(* --- transfers --- *)

type kind = Prefetch_load | Demand_load | Weight_stream_x

(* Final state of every transfer the run created — the schedule
   optimizer's evaluation signal and the schedule-conserve oracle's
   evidence (per-channel byte conservation, release-before-start). *)
type xfer_log = {
  log_owner : int;
  log_target : int;
  log_kind : kind;
  log_channel : int;
  log_bytes : float;
  log_load : float;
  log_deadline : float;
  log_released : float;       (* queue-entry instant (PDG release) *)
  log_started : float;        (* first instant granted bandwidth; -1 if never *)
  log_finished : float;       (* finish instant; -1 if cancelled/aborted *)
}

type result = {
  tenants : tenant_run array;
  makespan : float;
  timeline : segment list;
  channels : int;
  channel_timelines : segment list array;
  transfers : xfer_log list;
}

type xfer = {
  key : int;
  owner : int;
  target : int;
  kind : kind;
  channel : int;           (* DDR channel the transfer is bound to *)
  xrank : float;           (* searched-order rank (Optimized); 0 otherwise *)
  load : float;            (* seconds at full bandwidth *)
  bytes : float;
  released_at : float;
  mutable started_at : float; (* first instant with positive rate; -1 = never *)
  deadline : float;
  stall : float;           (* injected head-of-channel stall; 0 = none *)
  fails : int;             (* planned transient failures before success *)
  mutable attempt : int;   (* failures consumed so far *)
  mutable blocked_until : float; (* stalled / backing off until this time *)
  mutable work : float;    (* remaining seconds at full bandwidth *)
  mutable rate : float;
  mutable settled : float; (* time [work] was last brought up to date *)
  mutable eta : float;     (* projected finish under [rate]; infinity at 0 *)
  mutable finished : bool;
  mutable finished_at : float;
  pending : Scheduler.pending;  (* the scheduler's view, fixed at creation *)
  contender : int * int;        (* the arbiter's (key, priority) *)
}

(* --- node execution --- *)

type exec = {
  exec_id : int;
  exec_start : float;
  exec_if : float;
  exec_of : float;
  exec_stream : xfer option;
  (* Eq. 1 outcome, fixed once the streamed weights (if any) are in:
     [exec_finish] is nan until then. *)
  mutable exec_finish : float;
  mutable exec_binding : NM.binding;
}

(* The executing node's finish: infinity while its streamed weights are
   in flight, then Eq. 1 over its components, worked out once. *)
let node_finish latc e =
  if Float.is_nan e.exec_finish then
    match e.exec_stream with
    | Some x when not x.finished -> infinity
    | _ ->
      let wt_component =
        match e.exec_stream with
        | None -> 0.
        | Some x -> x.finished_at -. e.exec_start
      in
      let binding, duration =
        NM.duration_and_binding ~latc ~if_time:e.exec_if
          ~wt_component ~of_time:e.exec_of
      in
      e.exec_binding <- binding;
      e.exec_finish <- e.exec_start +. duration;
      e.exec_finish
  else e.exec_finish

type stage =
  | Entering           (* release node [next]'s transfers at [clock] *)
  | Awaiting of int    (* waiting for the node's weight transfers *)
  | Executing of exec
  | Finished

(* --- compiled tenant tables --- *)

(* Every per-node fact the state machine reads that depends only on the
   plan: Eq. 1 components, pinned fractions and the transfers each node
   releases.  Built once from (metric, on-chip set, PDG) and never
   written after; a run copies the two fields a bank loss rewrites. *)
type compiled = {
  input : tenant_input;
  profiles : Latency.profile array;
  frac : float array;          (* pinned fraction of each node's weight *)
  once_bytes : float array;    (* DDR bytes of loading the pinned part *)
  demand : float option array; (* demand load due absent a prefetch edge *)
  streamed : float array;      (* streamed seconds of the unpinned part *)
  stream_bytes : float array;
  if_time : float array;
  of_time : float array;
  if_bytes : float array;
  of_bytes : float array;
  released : Lcmm.Prefetch.edge list array;
  edge_flags : bool array;
}

let tables input ~on_chip ~prefetch =
  let metric = input.metric in
  let profiles = metric.Metric.profiles in
  let n = Array.length profiles in
  let frac = Array.init n (NM.pinned_fraction metric ~on_chip) in
  let released = NM.released_edges ?prefetch metric ~on_chip n in
  let no_edge = Array.make n false in
  let per_node f = Array.map f profiles in
  { input;
    profiles;
    frac;
    once_bytes =
      Array.mapi
        (fun id (p : Latency.profile) ->
          float_of_int p.Latency.wt_once_bytes *. frac.(id))
        profiles;
    demand = per_node (NM.demand_load metric ~on_chip ~has_edge:no_edge);
    streamed =
      Array.mapi
        (fun id (p : Latency.profile) -> p.Latency.wt_term *. (1. -. frac.(id)))
        profiles;
    stream_bytes =
      Array.mapi
        (fun id (p : Latency.profile) ->
          float_of_int p.Latency.wt_stream_bytes *. (1. -. frac.(id)))
        profiles;
    if_time = per_node (NM.if_time ~on_chip);
    of_time = per_node (NM.of_time ~on_chip);
    if_bytes =
      per_node (fun p -> float_of_int (Lcmm.Traffic.if_stream_bytes ~on_chip p));
    of_bytes = per_node (fun p -> float_of_int (NM.of_stream_bytes ~on_chip p));
    released;
    edge_flags = NM.has_edge released n }

let compile input =
  tables input ~on_chip:input.on_chip ~prefetch:input.prefetch

(* --- per-run tenant state --- *)

type tstate = {
  index : int;
  count : int;
  (* The tables the tenant runs under: the compiled input's until a bank
     loss swaps in the degraded plan's. *)
  mutable tab : compiled;
  released : Lcmm.Prefetch.edge list array;  (* per-run copy *)
  edge_flags : bool array;                   (* per-run copy *)
  weight_ready : float array;
  pending_w : int array;
  timings : Sim.Engine.node_timing array;
  queue : xfer Queue.t;      (* released, not yet on the channel *)
  mutable current : xfer option;
  mutable stage : stage;
  mutable next : int;
  mutable clock : float;
  mutable prefetch_wait : float;
  mutable wt_busy : float;
  mutable ddr : float;
  mutable lost_bytes : int;
  (* Fault counters. *)
  mutable retries : int;
  mutable stall_events : int;
  mutable degraded : int;
  mutable evicted_bytes : int;
  mutable pinned_after : int option;
  mutable surviving : int option;
  mutable aborted : string option;
}

let init_tenant index (c : compiled) =
  let n = Array.length c.profiles in
  { index;
    count = n;
    tab = c;
    released = Array.copy c.released;
    edge_flags = Array.copy c.edge_flags;
    weight_ready = Array.make n 0.;
    pending_w = Array.make n 0;
    timings =
      Array.make n
        { Sim.Engine.node_id = 0; start = 0.; finish = 0.; wait = 0.;
          binding = Sim.Engine.Compute };
    queue = Queue.create ();
    current = None;
    stage = Entering;
    next = 0;
    clock = c.input.arrival;
    prefetch_wait = 0.;
    wt_busy = 0.;
    ddr = 0.;
    lost_bytes = 0;
    retries = 0;
    stall_events = 0;
    degraded = 0;
    evicted_bytes = 0;
    pinned_after = None;
    surviving = None;
    aborted = None }

let is_finished ts = match ts.stage with Finished -> true | _ -> false

let run_compiled ~arbitration ~scheduler ?(channels = 1) ?assign ?rank ?faults
    compiled =
  let channels = max 1 channels in
  (* Channel of a transfer: the assignment callback's pick, clamped;
     everything lands on channel 0 when unassigned or single-channel —
     the aggregate fluid-bus model. *)
  let channel_of ~owner ~target kind =
    if channels = 1 then 0
    else
      match assign with
      | None -> 0
      | Some f ->
        let c = f ~owner ~target kind in
        if c < 0 || c >= channels then 0 else c
  in
  let rank_of ~owner ~target kind =
    match rank with None -> 0. | Some f -> f ~owner ~target kind
  in
  let tenants = Array.mapi init_tenant compiled in
  let priority_of owner = compiled.(owner).input.priority in
  (* Tenants whose wake-up candidates may have changed since the last
     heap flush.  Every mutation that can move a candidate time sets the
     owner's flag; [flush_dirty] re-pushes candidates before each
     [next_event], so the heap always holds every live candidate. *)
  let dirty = Array.make (Array.length tenants) true in
  let heap = EQ.create () in
  let key_counter = ref 0 in
  (* Per-key bandwidth state, indexed by transfer key.  Entries are only
     non-default inside one [assign_rates] round (set, read, cleared),
     so lookups that used to be [List.assoc_opt] are O(1). *)
  let rate_tbl = ref (Array.make 1024 0.) in
  let chosen_tbl = ref (Array.make 1024 false) in
  let fresh_key () =
    incr key_counter;
    let k = !key_counter in
    if k >= Array.length !rate_tbl then begin
      let n = 2 * Array.length !rate_tbl in
      let r = Array.make n 0. in
      Array.blit !rate_tbl 0 r 0 (Array.length !rate_tbl);
      rate_tbl := r;
      let c = Array.make n false in
      Array.blit !chosen_tbl 0 c 0 (Array.length !chosen_tbl);
      chosen_tbl := c
    end;
    k
  in
  let now = ref 0. in
  let segments = ref [] in
  let channel_segments = Array.make channels [] in
  let all_xfers = ref [] in
  let enqueue ts ~kind ~target ~load ~bytes ~deadline =
    let key = fresh_key () in
    let stall, fails =
      match faults with
      | None -> (0., 0)
      | Some inj ->
        (Fault.Injector.stall_seconds inj ~key,
         Fault.Injector.planned_failures inj ~key)
    in
    let priority = priority_of ts.index in
    let xrank = rank_of ~owner:ts.index ~target kind in
    let x =
      { key; owner = ts.index; target; kind;
        channel = channel_of ~owner:ts.index ~target kind;
        xrank;
        load; bytes; released_at = !now; started_at = -1.;
        deadline; stall; fails; attempt = 0; blocked_until = 0.;
        work = load; rate = 0.; settled = 0.; eta = infinity;
        finished = false; finished_at = 0.;
        pending = { Scheduler.key; deadline; priority; rank = xrank };
        contender = (key, priority) }
    in
    all_xfers := x :: !all_xfers;
    Queue.add x ts.queue;
    (match kind with
    | Prefetch_load | Demand_load -> ts.pending_w.(target) <- ts.pending_w.(target) + 1
    | Weight_stream_x -> ());
    x
  in
  (* Apply a per-tenant step to every tenant in index order; whether any
     of them changed something. *)
  let sweep step =
    let changed = ref false in
    for i = 0 to Array.length tenants - 1 do
      if step tenants.(i) then changed := true
    done;
    !changed
  in
  (* Move the queue head onto the tenant's (serial) channel. *)
  let start_job ts =
    if Option.is_none ts.current && not (Queue.is_empty ts.queue) then begin
      let x = Queue.pop ts.queue in
      x.settled <- !now;
      if x.stall > 0. then begin
        (* Injected head-of-channel stall: the transfer holds the
           channel but is ineligible until the stall passes. *)
        x.blocked_until <- !now +. x.stall;
        ts.stall_events <- ts.stall_events + 1
      end;
      ts.current <- Some x;
      dirty.(ts.index) <- true;
      true
    end
    else false
  in
  (* One zero-time step of a tenant's node state machine; returns whether
     it made progress.  The arithmetic below mirrors Sim.Engine.simulate
     through Sim.Node_model call for call, which is what makes the
     single-tenant co-simulation bit-identical to the isolated engine. *)
  let progress ts =
    match ts.stage with
    | Finished -> false
    | Entering ->
      if ts.clock > !now then false
      else if ts.next >= ts.count then begin
        ts.stage <- Finished;
        true
      end
      else begin
        let id = ts.next in
        let tab = ts.tab in
        List.iter
          (fun e ->
            let target = e.Lcmm.Prefetch.target in
            ignore
              (enqueue ts ~kind:Prefetch_load ~target
                 ~load:(e.Lcmm.Prefetch.load_seconds *. tab.frac.(target))
                 ~bytes:tab.once_bytes.(target)
                 ~deadline:(ts.clock +. tab.input.slack target)))
          ts.released.(id);
        (match tab.demand.(id) with
        | Some load when not ts.edge_flags.(id) ->
          ignore
            (enqueue ts ~kind:Demand_load ~target:id ~load
               ~bytes:tab.once_bytes.(id) ~deadline:ts.clock)
        | Some _ | None -> ());
        ts.stage <- Awaiting id;
        true
      end
    | Awaiting id ->
      let tab = ts.tab in
      let is_pinned = tab.frac.(id) > 0. in
      if is_pinned && ts.pending_w.(id) > 0 then false
      else begin
        let ready = if is_pinned then ts.weight_ready.(id) else 0. in
        let start = max ts.clock ready in
        if start > !now then false
        else begin
          let wait = start -. ts.clock in
          ts.prefetch_wait <- ts.prefetch_wait +. wait;
          (* The node's stall before it starts, as the isolated engine
             reports it; the Executing stage's timings write keeps it. *)
          ts.timings.(id) <- { ts.timings.(id) with Sim.Engine.wait };
          let streamed = tab.streamed.(id) in
          let stream =
            if streamed <= 0. then None
            else
              Some
                (enqueue ts ~kind:Weight_stream_x ~target:id ~load:streamed
                   ~bytes:tab.stream_bytes.(id) ~deadline:start)
          in
          ts.stage <-
            Executing
              { exec_id = id; exec_start = start; exec_if = tab.if_time.(id);
                exec_of = tab.of_time.(id); exec_stream = stream;
                exec_finish = Float.nan; exec_binding = NM.Compute };
          true
        end
      end
    | Executing e ->
      let tab = ts.tab in
      let finish = node_finish tab.profiles.(e.exec_id).Latency.latc e in
      if finish > !now then false
      else begin
        ts.timings.(e.exec_id) <-
          { Sim.Engine.node_id = e.exec_id; start = e.exec_start; finish;
            wait = ts.timings.(e.exec_id).Sim.Engine.wait;
            binding = e.exec_binding };
        ts.ddr <-
          ts.ddr +. tab.if_bytes.(e.exec_id) +. tab.of_bytes.(e.exec_id);
        ts.clock <- finish;
        ts.next <- e.exec_id + 1;
        ts.stage <- Entering;
        true
      end
  in
  (* Hard tenant abort: drop every queued and in-flight transfer, pin
     the clock at the abort instant and finish the tenant.  Executed
     nodes keep their timings; the report surfaces the reason. *)
  let abort ts reason =
    dirty.(ts.index) <- true;
    ts.aborted <- Some reason;
    Queue.clear ts.queue;
    ts.current <- None;
    ts.clock <- Float.max ts.clock !now;
    ts.stage <- Finished
  in
  (* SRAM bank loss: enter degraded mode.  The replan callback evicts
     pinned virtual buffers by reverse benefit-density and re-solves the
     tenant at the surviving capacity (Framework.degrade); here we swap
     the live plan and resume from the current node.  Prefetched but
     unconsumed weights are conservatively treated as lost (they may
     have lived in the failed bank): pending transfers are cancelled and
     future nodes refetch under the new plan — prefetched when the new
     PDG still releases them, demand-loaded otherwise. *)
  let degrade ts =
    match ts.tab.input.replan with
    | None ->
      abort ts
        (Printf.sprintf "bank loss (%d bytes) without replan support"
           ts.lost_bytes)
    | Some f -> (
      match f ~lost_bytes:ts.lost_bytes with
      | None -> abort ts "bank loss: no feasible degraded plan"
      | Some d ->
        dirty.(ts.index) <- true;
        (* Keep only the executing node's streamed-weight transfer: the
           node started before the fault and carries its own state. *)
        let keep_stream =
          match ts.stage with Executing e -> e.exec_stream | _ -> None
        in
        let keep x =
          match keep_stream with Some k -> k == x | None -> false
        in
        let kept =
          Queue.fold (fun acc x -> if keep x then x :: acc else acc) [] ts.queue
        in
        Queue.clear ts.queue;
        List.iter (fun x -> Queue.add x ts.queue) (List.rev kept);
        (match ts.current with
        | Some x when not (keep x) -> ts.current <- None
        | _ -> ());
        (* The degraded plan's tables, rebuilt for this run alone: the
           compiled input other runs share is never written. *)
        ts.tab <-
          tables ts.tab.input ~on_chip:d.deg_on_chip ~prefetch:d.deg_prefetch;
        (* A tenant caught between release and execution re-enters its
           node: the weights it was waiting for were just cancelled. *)
        (match ts.stage with
        | Awaiting id ->
          ts.stage <- Entering;
          ts.next <- id;
          ts.clock <- Float.max ts.clock !now
        | Entering | Executing _ | Finished -> ());
        let resume =
          match ts.stage with
          | Entering -> ts.next
          | Executing e -> e.exec_id + 1
          | Finished -> ts.count
          | Awaiting _ -> assert false
        in
        Array.iteri
          (fun src edges ->
            ts.released.(src) <- (if src < resume then [] else edges))
          ts.tab.released;
        let flags = NM.has_edge ts.released ts.count in
        Array.blit flags 0 ts.edge_flags 0 ts.count;
        Array.fill ts.pending_w 0 ts.count 0;
        Array.fill ts.weight_ready 0 ts.count 0.;
        ts.degraded <- ts.degraded + 1;
        ts.evicted_bytes <- ts.evicted_bytes + d.deg_evicted_bytes;
        ts.pinned_after <- Some d.deg_pinned_bytes;
        ts.surviving <- Some d.deg_surviving_bytes)
  in
  (* Discrete fault events (bank losses, aborts) from the spec timeline,
     fired once their instant is reached. *)
  let pending_events =
    ref
      (match faults with
      | None -> []
      | Some inj -> Fault.Injector.events inj)
  in
  let rec fire_due_events () =
    match !pending_events with
    | ev :: rest when Fault.Injector.event_time ev <= !now ->
      pending_events := rest;
      (match ev with
      | Fault.Injector.Bank_loss { tenant; bytes; _ } ->
        if tenant >= 0 && tenant < Array.length tenants then begin
          let ts = tenants.(tenant) in
          if not (is_finished ts) then begin
            ts.lost_bytes <- ts.lost_bytes + bytes;
            degrade ts
          end
        end
      | Fault.Injector.Abort { tenant; at } ->
        if tenant >= 0 && tenant < Array.length tenants then begin
          let ts = tenants.(tenant) in
          if not (is_finished ts) then
            abort ts (Printf.sprintf "injected abort at %.3f ms" (at *. 1e3))
        end);
      ignore (fire_due_events ());
      true
    | _ -> false
  in
  (* The transfer a tenant holds its channel with, if unfinished. *)
  let on_channel ts =
    match ts.current with
    | Some x as held when not x.finished -> held
    | Some _ | None -> None
  in
  (* The transfers bound to [channel] that are eligible for bandwidth
     (not stalled or backing off) and pass [keep], mapped by [f], in
     tenant order — the order the scheduler and arbiter always saw. *)
  let collect channel keep f =
    let acc = ref [] in
    for i = Array.length tenants - 1 downto 0 do
      match on_channel tenants.(i) with
      | Some x when x.channel = channel && x.blocked_until <= !now && keep x ->
        acc := f x :: !acc
      | Some _ | None -> ()
    done;
    !acc
  in
  (* The scheduler picks the eligible subset per DDR channel and the
     arbiter splits that channel's bandwidth stripe over it; everything
     else is preempted (rate 0, channel still held).  Rates stay
     fractions of the full aggregate bandwidth, so the ETA math below is
     the same at any width; at one channel the stripe is 1 and this is
     the pre-channel aggregate bus, float for float. *)
  let assign_rates () =
    let ctbl = !chosen_tbl and rtbl = !rate_tbl in
    let stripe = 1. /. float_of_int channels in
    for c = 0 to channels - 1 do
      (match collect c (fun _ -> true) (fun x -> x.pending) with
      | [] -> ()
      | ps ->
        List.iter
          (fun k -> ctbl.(k) <- true)
          (Scheduler.eligible scheduler ps));
      match collect c (fun x -> ctbl.(x.key)) (fun x -> x.contender) with
      | [] -> ()
      | cs ->
        Arbiter.rates_into arbitration cs rtbl;
        List.iter (fun (k, _) -> rtbl.(k) <- rtbl.(k) *. stripe) cs
    done;
    (* A DDR droop window scales every granted rate; multiplying by the
       1.0 no-fault factor is skipped outright so the fault-free float
       path stays bit-identical. *)
    let factor =
      match faults with
      | None -> 1.
      | Some inj -> Fault.Injector.droop_factor inj ~now:!now
    in
    for i = 0 to Array.length tenants - 1 do
      match on_channel tenants.(i) with
      | None -> ()
      | Some x ->
        let r = rtbl.(x.key) in
        let r = if factor = 1. then r else r *. factor in
        if r <> x.rate then begin
          (* Settle the work done at the old rate before switching; a
             transfer whose rate never changes keeps its exact
             [settled + work/rate] finish time, which single-tenant
             exactness depends on. *)
          x.work <- x.work -. ((!now -. x.settled) *. x.rate);
          if x.work < 0. then x.work <- 0.;
          x.settled <- !now;
          x.rate <- r;
          if r > 0. && x.started_at < 0. then x.started_at <- !now;
          x.eta <-
            (if r > 0. then (if x.work <= 0. then !now else !now +. (x.work /. r))
             else infinity);
          dirty.(x.owner) <- true
        end;
        (* Clear this round's key-indexed entries: stale keys always
           read as not-chosen and rate 0. *)
        ctbl.(x.key) <- false;
        rtbl.(x.key) <- 0.
    done
  in
  let complete_due ts =
    match ts.current with
    | Some x when (not x.finished) && x.rate > 0. && x.eta <= !now ->
      dirty.(ts.index) <- true;
      if x.attempt < x.fails then begin
        (* Transient failure: the attempt's bytes moved over the bus
           but the payload is bad.  Retry after a capped exponential
           backoff with seeded jitter; past the retry budget the
           tenant aborts. *)
        let at = x.eta in
        x.attempt <- x.attempt + 1;
        ts.wt_busy <- ts.wt_busy +. x.load;
        ts.ddr <- ts.ddr +. x.bytes;
        (match faults with
        | Some inj when x.attempt <= Fault.Injector.max_retries inj ->
          ts.retries <- ts.retries + 1;
          x.work <- x.load;
          x.settled <- at;
          x.rate <- 0.;
          x.eta <- infinity;
          x.blocked_until <-
            at
            +. Fault.Injector.backoff_seconds inj ~key:x.key
                 ~attempt:(x.attempt - 1)
        | Some _ | None ->
          abort ts
            (Printf.sprintf
               "transfer to node %d failed %d times (retry budget \
                exhausted)"
               x.target x.attempt));
        true
      end
      else begin
        x.finished <- true;
        x.finished_at <- x.eta;
        x.work <- 0.;
        ts.current <- None;
        ts.wt_busy <- ts.wt_busy +. x.load;
        ts.ddr <- ts.ddr +. x.bytes;
        (match x.kind with
        | Prefetch_load ->
          ts.weight_ready.(x.target) <- x.finished_at;
          ts.pending_w.(x.target) <- ts.pending_w.(x.target) - 1
        | Demand_load ->
          ts.weight_ready.(x.target) <-
            max ts.weight_ready.(x.target) x.finished_at;
          ts.pending_w.(x.target) <- ts.pending_w.(x.target) - 1
        | Weight_stream_x -> ());
        true
      end
    | _ -> false
  in
  let all_finished () =
    Array.for_all is_finished tenants
  in
  let step ts =
    if progress ts then begin
      dirty.(ts.index) <- true;
      true
    end
    else false
  in
  (* Exhaust every zero-time transition at the current instant. *)
  let settle_instant () =
    let continue = ref true in
    while !continue do
      let fired = fire_due_events () in
      let stepped = sweep step in
      let started = sweep start_job in
      assign_rates ();
      let completed = sweep complete_due in
      continue := fired || stepped || started || completed
    done
  in
  (* Wake-up candidates per tenant, exactly the times the old linear
     scan considered.  Recomputed from current state both when pushing
     and when validating a popped heap entry: an entry whose time no
     longer equals a current candidate is stale and dropped. *)
  let stage_candidate ts =
    match ts.stage with
    | Entering -> ts.clock
    | Executing e -> node_finish ts.tab.profiles.(e.exec_id).Latency.latc e
    | Awaiting _ | Finished -> infinity
  in
  let xfer_candidate ts =
    match ts.current with
    | Some x when (not x.finished) && x.rate > 0. -> x.eta
    | Some x when (not x.finished) && x.blocked_until > !now ->
      x.blocked_until
    | _ -> infinity
  in
  (* Candidates at or before [now] are dead: they stay constant while
     the tenant's state is unchanged and time only moves forward, so
     skipping them matches the old scan's [t > now] filter for good. *)
  let flush_dirty () =
    Array.iteri
      (fun i d ->
        if d then begin
          dirty.(i) <- false;
          let ts = tenants.(i) in
          let s = stage_candidate ts in
          if s > !now && s < infinity then EQ.push heap ~time:s i;
          let x = xfer_candidate ts in
          if x > !now && x < infinity then EQ.push heap ~time:x i
        end)
      dirty
  in
  let next_event () =
    let best = ref infinity in
    let consider t = if t > !now && t < !best then best := t in
    (match faults with
    | None -> ()
    | Some inj ->
      (match !pending_events with
      | ev :: _ -> consider (Fault.Injector.event_time ev)
      | [] -> ());
      let boundary = Fault.Injector.next_droop_boundary inj ~now:!now in
      if boundary < infinity then consider boundary);
    let continue = ref true in
    while !continue do
      match EQ.peek heap with
      | None -> continue := false
      | Some (t, i) ->
        if t <= !now then EQ.drop_min heap
        else if t >= !best then continue := false
        else begin
          let ts = tenants.(i) in
          if t = stage_candidate ts || t = xfer_candidate ts then begin
            (* Valid minimum; it becomes stale (<= now) once time
               advances to it and is collected on a later pop. *)
            best := t;
            continue := false
          end
          else EQ.drop_min heap
        end
    done;
    !best
  in
  let utilization () =
    Array.fold_left
      (fun acc ts ->
        match on_channel ts with Some x -> acc +. x.rate | None -> acc)
      0. tenants
  in
  (* Per-channel summed rates, in the same full-bandwidth units as the
     aggregate timeline: the channel timelines always sum to it, and at
     one channel [channel_utilization ().(0)] IS the aggregate value
     (same left-to-right float fold over the same transfers). *)
  let channel_utilization () =
    let u = Array.make channels 0. in
    Array.iter
      (fun ts ->
        match on_channel ts with
        | Some x -> u.(x.channel) <- u.(x.channel) +. x.rate
        | None -> ())
      tenants;
    u
  in
  let guard = ref 0 in
  settle_instant ();
  flush_dirty ();
  while not (all_finished ()) do
    incr guard;
    if !guard > 100_000_000 then failwith "Runtime.Engine: event loop stuck";
    let t = next_event () in
    if t = infinity then
      failwith "Runtime.Engine: no runnable event but tenants unfinished";
    let util = utilization () in
    if t > !now then begin
      segments := { seg_start = !now; seg_end = t; utilization = util } :: !segments;
      let cu = channel_utilization () in
      for c = 0 to channels - 1 do
        channel_segments.(c) <-
          { seg_start = !now; seg_end = t; utilization = cu.(c) }
          :: channel_segments.(c)
      done
    end;
    now := t;
    settle_instant ();
    flush_dirty ()
  done;
  let runs =
    Array.map
      (fun ts ->
        { label = ts.tab.input.label;
          timings = ts.timings;
          finish = ts.clock;
          latency = ts.clock -. ts.tab.input.arrival;
          prefetch_wait = ts.prefetch_wait;
          wt_channel_busy = ts.wt_busy;
          ddr_bytes = ts.ddr;
          faults =
            { retries = ts.retries;
              stalls = ts.stall_events;
              degraded = ts.degraded;
              evicted_bytes = ts.evicted_bytes;
              pinned_after = ts.pinned_after;
              surviving_bytes = ts.surviving;
              aborted = ts.aborted } })
      tenants
  in
  let makespan =
    Array.fold_left (fun acc r -> max acc r.finish) 0. runs
  in
  (* Merge adjacent segments with equal utilization. *)
  let merge segs =
    List.fold_left
      (fun acc seg ->
        match acc with
        | prev :: rest
          when prev.utilization = seg.utilization
               && prev.seg_end = seg.seg_start ->
          { prev with seg_end = seg.seg_end } :: rest
        | _ -> seg :: acc)
      [] (List.rev segs)
    |> List.rev
  in
  let timeline = merge !segments in
  let channel_timelines = Array.map merge channel_segments in
  let transfers =
    List.rev_map
      (fun x ->
        { log_owner = x.owner;
          log_target = x.target;
          log_kind = x.kind;
          log_channel = x.channel;
          log_bytes = x.bytes;
          log_load = x.load;
          log_deadline = x.deadline;
          log_released = x.released_at;
          log_started = x.started_at;
          log_finished = (if x.finished then x.finished_at else -1.) })
      !all_xfers
  in
  { tenants = runs; makespan; timeline; channels; channel_timelines;
    transfers }

let run ~arbitration ~scheduler ?channels ?assign ?rank ?faults inputs =
  run_compiled ~arbitration ~scheduler ?channels ?assign ?rank ?faults
    (Array.map compile inputs)
