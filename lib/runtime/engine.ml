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

(* A transfer's clocks.  Every field is a float, so the record is stored
   flat and the engine's writes update it in place instead of boxing a
   float per write. *)
type xclock = {
  mutable work : float;    (* remaining seconds at full bandwidth *)
  mutable rate : float;
  mutable settled : float; (* time [work] was last brought up to date *)
  mutable eta : float;     (* projected finish under [rate]; infinity at 0 *)
  mutable started_at : float;    (* first instant with positive rate; -1 = never *)
  mutable blocked_until : float; (* stalled / backing off until this time *)
  mutable finished_at : float;
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
  deadline : float;
  stall : float;           (* injected head-of-channel stall; 0 = none *)
  fails : int;             (* planned transient failures before success *)
  mutable attempt : int;   (* failures consumed so far *)
  mutable finished : bool;
  clk : xclock;
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
        | Some x -> x.clk.finished_at -. e.exec_start
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

(* A tenant's clock and float accumulators, float-only like [xclock]. *)
type tclock = {
  mutable clock : float;
  mutable prefetch_wait : float;
  mutable wt_busy : float;
  mutable ddr : float;
}

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
  tc : tclock;
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
    tc = { clock = c.input.arrival; prefetch_wait = 0.; wt_busy = 0.; ddr = 0. };
    lost_bytes = 0;
    retries = 0;
    stall_events = 0;
    degraded = 0;
    evicted_bytes = 0;
    pinned_after = None;
    surviving = None;
    aborted = None }

let is_finished ts = match ts.stage with Finished -> true | _ -> false

(* The run's current instant, float-only so advancing it stores in
   place. *)
type instant = { mutable now : float }

(* A utilization timeline under construction.  Adjacent pieces with
   equal utilization merge as they arrive, so a segment is allocated
   only when the utilization changes; [o_*] is the open piece ([o_start]
   is nan before the first). *)
type timeline_acc = {
  mutable o_start : float;
  mutable o_end : float;
  mutable o_util : float;
}

let new_timeline () = { o_start = Float.nan; o_end = Float.nan; o_util = Float.nan }

let closed_piece acc =
  { seg_start = acc.o_start; seg_end = acc.o_end; utilization = acc.o_util }

(* The chronological timeline: [closed] (newest first) plus the open
   piece. *)
let finish_timeline acc closed =
  List.rev (if Float.is_nan acc.o_start then closed else closed_piece acc :: closed)

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
  let count = Array.length tenants in
  let priority_of owner = compiled.(owner).input.priority in
  (* Tenants whose wake-up candidates may have changed since the last
     heap flush.  Every mutation that can move a candidate time sets the
     owner's flag; [flush_dirty] re-pushes candidates before each
     [next_event], so the heap always holds every live candidate. *)
  let dirty = Array.make count true in
  let heap = EQ.create () in
  let key_counter = ref 0 in
  let clock = { now = 0. } in
  let segments = ref [] and timeline = new_timeline () in
  let channel_segments = Array.make channels [] in
  let channel_timelines = Array.init channels (fun _ -> new_timeline ()) in
  let all_xfers = ref [] in
  let enqueue ts ~kind ~target ~load ~bytes ~deadline =
    incr key_counter;
    let key = !key_counter in
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
        load; bytes; released_at = clock.now;
        deadline; stall; fails; attempt = 0; finished = false;
        clk =
          { work = load; rate = 0.; settled = 0.; eta = infinity;
            started_at = -1.; blocked_until = 0.; finished_at = 0. };
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
    for i = 0 to count - 1 do
      if step tenants.(i) then changed := true
    done;
    !changed
  in
  (* Move the queue head onto the tenant's (serial) channel. *)
  let start_job ts =
    if Option.is_none ts.current && not (Queue.is_empty ts.queue) then begin
      let x = Queue.pop ts.queue in
      x.clk.settled <- clock.now;
      if x.stall > 0. then begin
        (* Injected head-of-channel stall: the transfer holds the
           channel but is ineligible until the stall passes. *)
        x.clk.blocked_until <- clock.now +. x.stall;
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
      if ts.tc.clock > clock.now then false
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
                 ~deadline:(ts.tc.clock +. tab.input.slack target)))
          ts.released.(id);
        (match tab.demand.(id) with
        | Some load when not ts.edge_flags.(id) ->
          ignore
            (enqueue ts ~kind:Demand_load ~target:id ~load
               ~bytes:tab.once_bytes.(id) ~deadline:ts.tc.clock)
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
        let start = max ts.tc.clock ready in
        if start > clock.now then false
        else begin
          let wait = start -. ts.tc.clock in
          ts.tc.prefetch_wait <- ts.tc.prefetch_wait +. wait;
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
      if finish > clock.now then false
      else begin
        ts.timings.(e.exec_id) <-
          { Sim.Engine.node_id = e.exec_id; start = e.exec_start; finish;
            wait = ts.timings.(e.exec_id).Sim.Engine.wait;
            binding = e.exec_binding };
        ts.tc.ddr <-
          ts.tc.ddr +. tab.if_bytes.(e.exec_id) +. tab.of_bytes.(e.exec_id);
        ts.tc.clock <- finish;
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
    ts.tc.clock <- Float.max ts.tc.clock clock.now;
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
          ts.tc.clock <- Float.max ts.tc.clock clock.now
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
    | ev :: rest when Fault.Injector.event_time ev <= clock.now ->
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
  (* The transfer held by tenant [i], known to be on a channel. *)
  let held i =
    match tenants.(i).current with Some x -> x | None -> assert false
  in
  (* Per channel, the tenant holding the scheduler's pick, the tenant
     holding the arbiter's winner among all eligible transfers, and how
     many are eligible (not stalled or backing off); -1 for none.
     Rebuilt in place by each [assign_rates]. *)
  let urgent = Array.make channels (-1) in
  let winner = Array.make channels (-1) in
  let eligible = Array.make channels 0 in
  let exclusive = Scheduler.exclusive scheduler in
  let stripe = 1. /. float_of_int channels in
  (* The scheduler picks the contenders per DDR channel (all eligible
     transfers, or the most urgent one) and the arbiter splits that
     channel's bandwidth stripe over them; everything else is preempted
     (rate 0, channel still held).  Both folds run in tenant order, the
     order the list forms in [Scheduler] and [Arbiter] see.  Rates stay
     fractions of the full aggregate bandwidth, so the ETA math below is
     the same at any width; at one channel the stripe is 1 and this is
     the pre-channel aggregate bus, float for float. *)
  let assign_rates () =
    Array.fill urgent 0 channels (-1);
    Array.fill winner 0 channels (-1);
    Array.fill eligible 0 channels 0;
    for i = 0 to count - 1 do
      match tenants.(i).current with
      | Some x when (not x.finished) && x.clk.blocked_until <= clock.now ->
        let c = x.channel in
        eligible.(c) <- eligible.(c) + 1;
        let u = urgent.(c) in
        if u < 0 || Scheduler.more_urgent scheduler x.pending (held u).pending
        then urgent.(c) <- i;
        let w = winner.(c) in
        if w < 0 || Arbiter.preferred x.contender (held w).contender then
          winner.(c) <- i
      | Some _ | None -> ()
    done;
    (* A DDR droop window scales every granted rate; multiplying by the
       1.0 no-fault factor is skipped outright so the fault-free float
       path stays bit-identical. *)
    let factor =
      match faults with
      | None -> 1.
      | Some inj -> Fault.Injector.droop_factor inj ~now:clock.now
    in
    for i = 0 to count - 1 do
      match tenants.(i).current with
      | Some x when not x.finished ->
        let c = x.channel in
        let r =
          if x.clk.blocked_until > clock.now then 0.
          else if exclusive then (
            if urgent.(c) = i then
              Arbiter.share arbitration ~contenders:1 ~winner:true *. stripe
            else 0.)
          else
            Arbiter.share arbitration ~contenders:eligible.(c)
              ~winner:(winner.(c) = i)
            *. stripe
        in
        let r = if factor = 1. then r else r *. factor in
        let xc = x.clk in
        if r <> xc.rate then begin
          (* Settle the work done at the old rate before switching; a
             transfer whose rate never changes keeps its exact
             [settled + work/rate] finish time, which single-tenant
             exactness depends on. *)
          xc.work <- xc.work -. ((clock.now -. xc.settled) *. xc.rate);
          if xc.work < 0. then xc.work <- 0.;
          xc.settled <- clock.now;
          xc.rate <- r;
          if r > 0. && xc.started_at < 0. then xc.started_at <- clock.now;
          xc.eta <-
            (if r > 0. then
               if xc.work <= 0. then clock.now else clock.now +. (xc.work /. r)
             else infinity);
          dirty.(x.owner) <- true
        end
      | Some _ | None -> ()
    done
  in
  let complete_due ts =
    match ts.current with
    | Some x when (not x.finished) && x.clk.rate > 0. && x.clk.eta <= clock.now ->
      dirty.(ts.index) <- true;
      let xc = x.clk in
      if x.attempt < x.fails then begin
        (* Transient failure: the attempt's bytes moved over the bus
           but the payload is bad.  Retry after a capped exponential
           backoff with seeded jitter; past the retry budget the
           tenant aborts. *)
        let at = xc.eta in
        x.attempt <- x.attempt + 1;
        ts.tc.wt_busy <- ts.tc.wt_busy +. x.load;
        ts.tc.ddr <- ts.tc.ddr +. x.bytes;
        (match faults with
        | Some inj when x.attempt <= Fault.Injector.max_retries inj ->
          ts.retries <- ts.retries + 1;
          xc.work <- x.load;
          xc.settled <- at;
          xc.rate <- 0.;
          xc.eta <- infinity;
          xc.blocked_until <-
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
        xc.finished_at <- xc.eta;
        xc.work <- 0.;
        ts.current <- None;
        ts.tc.wt_busy <- ts.tc.wt_busy +. x.load;
        ts.tc.ddr <- ts.tc.ddr +. x.bytes;
        (match x.kind with
        | Prefetch_load ->
          ts.weight_ready.(x.target) <- xc.finished_at;
          ts.pending_w.(x.target) <- ts.pending_w.(x.target) - 1
        | Demand_load ->
          ts.weight_ready.(x.target) <-
            max ts.weight_ready.(x.target) xc.finished_at;
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
  (* Exhaust every zero-time transition at the current instant.  Rates
     are a function of the held transfers, their stalls and the instant,
     and stepping a node never changes a held transfer, so the bandwidth
     is re-arbitrated only on the instant's first pass and on a pass
     after a start, a completion (or retry) or a fired fault event: on
     any other pass it would hand out the same rates again. *)
  let settle_instant () =
    let rearbitrate = ref true in
    let continue = ref true in
    while !continue do
      let fired = fire_due_events () in
      let stepped = sweep step in
      let started = sweep start_job in
      if !rearbitrate || fired || started then assign_rates ();
      let completed = sweep complete_due in
      rearbitrate := completed;
      continue := fired || stepped || started || completed
    done
  in
  (* Wake-up candidates per tenant, exactly the times the old linear
     scan considered.  Recomputed from current state both when pushing
     and when validating a popped heap entry: an entry whose time no
     longer equals a current candidate is stale and dropped. *)
  let stage_candidate ts =
    match ts.stage with
    | Entering -> ts.tc.clock
    | Executing e -> node_finish ts.tab.profiles.(e.exec_id).Latency.latc e
    | Awaiting _ | Finished -> infinity
  in
  let xfer_candidate ts =
    match ts.current with
    | Some x when (not x.finished) && x.clk.rate > 0. -> x.clk.eta
    | Some x when (not x.finished) && x.clk.blocked_until > clock.now ->
      x.clk.blocked_until
    | _ -> infinity
  in
  (* Candidates at or before [now] are dead: they stay constant while
     the tenant's state is unchanged and time only moves forward, so
     skipping them matches the old scan's [t > now] filter for good. *)
  let flush_dirty () =
    for i = 0 to count - 1 do
      if dirty.(i) then begin
        dirty.(i) <- false;
        let ts = tenants.(i) in
        let s = stage_candidate ts in
        if s > clock.now && s < infinity then EQ.push heap ~time:s i;
        let x = xfer_candidate ts in
        if x > clock.now && x < infinity then EQ.push heap ~time:x i
      end
    done
  in
  let next_event () =
    let best = ref infinity in
    (match faults with
    | None -> ()
    | Some inj ->
      (match !pending_events with
      | ev :: _ ->
        let t = Fault.Injector.event_time ev in
        if t > clock.now && t < !best then best := t
      | [] -> ());
      let boundary = Fault.Injector.next_droop_boundary inj ~now:clock.now in
      if boundary < infinity && boundary > clock.now && boundary < !best then
        best := boundary);
    let continue = ref true in
    while !continue && EQ.length heap > 0 do
      let t = EQ.min_time heap in
      if t <= clock.now then EQ.drop_min heap
      else if t >= !best then continue := false
      else begin
        let ts = tenants.(EQ.min_tag heap) in
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
  (* Per-channel summed rates, in the same full-bandwidth units as the
     aggregate timeline: the channel timelines always sum to it, and at
     one channel [channel_util.(0)] IS the aggregate value (same
     left-to-right float fold over the same transfers). *)
  let channel_util = Array.make channels 0. in
  (* Add [now, t) at utilization [util] to a timeline; returns its
     closed pieces. *)
  let extend acc closed t util =
    if acc.o_util = util && acc.o_end = clock.now then begin
      acc.o_end <- t;
      closed
    end
    else begin
      let closed =
        if Float.is_nan acc.o_start then closed else closed_piece acc :: closed
      in
      acc.o_start <- clock.now;
      acc.o_end <- t;
      acc.o_util <- util;
      closed
    end
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
    if t > clock.now then begin
      let util = ref 0. in
      Array.fill channel_util 0 channels 0.;
      for i = 0 to count - 1 do
        match on_channel tenants.(i) with
        | Some x ->
          util := !util +. x.clk.rate;
          channel_util.(x.channel) <- channel_util.(x.channel) +. x.clk.rate
        | None -> ()
      done;
      segments := extend timeline !segments t !util;
      for c = 0 to channels - 1 do
        channel_segments.(c) <-
          extend channel_timelines.(c) channel_segments.(c) t channel_util.(c)
      done
    end;
    clock.now <- t;
    settle_instant ();
    flush_dirty ()
  done;
  let runs =
    Array.map
      (fun ts ->
        { label = ts.tab.input.label;
          timings = ts.timings;
          finish = ts.tc.clock;
          latency = ts.tc.clock -. ts.tab.input.arrival;
          prefetch_wait = ts.tc.prefetch_wait;
          wt_channel_busy = ts.tc.wt_busy;
          ddr_bytes = ts.tc.ddr;
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
  let timeline = finish_timeline timeline !segments in
  let channel_timelines =
    Array.mapi (fun c acc -> finish_timeline acc channel_segments.(c))
      channel_timelines
  in
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
          log_started = x.clk.started_at;
          log_finished = (if x.finished then x.clk.finished_at else -1.) })
      !all_xfers
  in
  { tenants = runs; makespan; timeline; channels; channel_timelines;
    transfers }

let run ~arbitration ~scheduler ?channels ?assign ?rank ?faults inputs =
  run_compiled ~arbitration ~scheduler ?channels ?assign ?rank ?faults
    (Array.map compile inputs)
