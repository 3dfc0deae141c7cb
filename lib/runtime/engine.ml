module Metric = Lcmm.Metric
module Latency = Accel.Latency
module NM = Sim.Node_model

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

type kind = Transfer.kind = Prefetch_load | Demand_load | Weight_stream_x

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

(* The absent transfer: what a tenant holds when its channel is free and
   what a node streams when it streams nothing.  It counts as finished,
   so every "held and unfinished" test reads it as no transfer. *)
let no_xfer =
  let x = Transfer.make ~key:0 ~priority:0 ~deadline:0. ~rank:0. in
  x.Transfer.finished <- true;
  x

(* A fresh transfer's clocks, released at [now].  Inlined, so the floats
   go straight into the flat block without being boxed on the way. *)
let[@inline] new_clock ~now ~load ~bytes ~deadline =
  { Transfer.rank = 0.; deadline; load; bytes; released_at = now; stall = 0.;
    work = load; rate = 0.; settled = 0.; eta = infinity; started_at = -1.;
    blocked_until = 0.; finished_at = 0. }

(* [max] on floats without the polymorphic compare: the same result as
   [Stdlib.max] ([a] unless [b] is larger), nothing boxed. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

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
  slack : float array;         (* the input's [slack], node by node *)
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
    slack = Array.init n input.slack;
    released;
    edge_flags = NM.has_edge released n }

let compile input =
  tables input ~on_chip:input.on_chip ~prefetch:input.prefetch


(* --- per-run tenant state --- *)

(* Where a tenant's node state machine stands.  The node is always
   [next]: its transfers are released on [Entering], its weights awaited
   on [Awaiting], and it runs on [Executing], from [exec_start]. *)
type stage = Entering | Awaiting | Executing | Finished

(* A tenant's clock, float accumulators and the executing node's times,
   float-only like [Transfer.clock], so every write stores in place. *)
type tclock = {
  mutable clock : float;
  mutable prefetch_wait : float;
  mutable wt_busy : float;
  mutable ddr : float;
  (* The executing node: its start, its stall before the start, and the
     Eq. 1 components fixed at the start ([tab] may change under it). *)
  mutable exec_start : float;
  mutable exec_wait : float;
  mutable exec_if : float;
  mutable exec_of : float;
  (* Its finish, nan until its streamed weights (if any) are in. *)
  mutable exec_finish : float;
}

type tstate = {
  index : int;
  count : int;
  priority : int;
  (* The tables the tenant runs under: the compiled input's until a bank
     loss swaps in the degraded plan's. *)
  mutable tab : compiled;
  released : Lcmm.Prefetch.edge list array;  (* per-run copy *)
  edge_flags : bool array;                   (* per-run copy *)
  weight_ready : float array;
  pending_w : int array;
  (* Node [i]'s timing, written when it finishes; a node that never
     finishes keeps [node_id = 0] (and the stall it began with). *)
  timings : Sim.Engine.node_timing array;
  (* Released transfers not yet on the channel, oldest first:
     [queue.(qhead) .. queue.(qtail - 1)]. *)
  mutable queue : Transfer.t array;
  mutable qhead : int;
  mutable qtail : int;
  mutable current : Transfer.t;   (* held on the channel; [no_xfer] if none *)
  mutable stream : Transfer.t;    (* the executing node's streamed weights *)
  mutable binding : NM.binding;   (* the executing node's, once known *)
  mutable stage : stage;
  mutable next : int;
  (* [progress] returned false and nothing it reads has changed since:
     the settle sweeps skip the tenant until the instant moves on or a
     completion, a degrade or an abort touches it. *)
  mutable idle : bool;
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

let unfinished_timing =
  { Sim.Engine.node_id = 0; start = 0.; finish = 0.; wait = 0.;
    binding = Sim.Engine.Compute }

let init_tenant index (c : compiled) =
  let n = Array.length c.profiles in
  { index;
    count = n;
    priority = c.input.priority;
    tab = c;
    released = Array.copy c.released;
    edge_flags = Array.copy c.edge_flags;
    weight_ready = Array.make n 0.;
    pending_w = Array.make n 0;
    timings = Array.make n unfinished_timing;
    queue = Array.make 8 no_xfer;
    qhead = 0;
    qtail = 0;
    current = no_xfer;
    stream = no_xfer;
    binding = NM.Compute;
    stage = Entering;
    next = 0;
    idle = false;
    tc =
      { clock = c.input.arrival; prefetch_wait = 0.; wt_busy = 0.; ddr = 0.;
        exec_start = 0.; exec_wait = 0.; exec_if = 0.; exec_of = 0.;
        exec_finish = Float.nan };
    lost_bytes = 0;
    retries = 0;
    stall_events = 0;
    degraded = 0;
    evicted_bytes = 0;
    pinned_after = None;
    surviving = None;
    aborted = None }

let is_finished ts = match ts.stage with Finished -> true | _ -> false

(* The tenant's queue, a FIFO over a growable array that rewinds to its
   start whenever it empties. *)
let queue_push ts x =
  if ts.qtail = Array.length ts.queue then begin
    let live = ts.qtail - ts.qhead in
    let q =
      if 2 * live <= Array.length ts.queue then ts.queue
      else Array.make (2 * Array.length ts.queue) no_xfer
    in
    Array.blit ts.queue ts.qhead q 0 live;
    Array.fill q live (Array.length q - live) no_xfer;
    ts.queue <- q;
    ts.qhead <- 0;
    ts.qtail <- live
  end;
  ts.queue.(ts.qtail) <- x;
  ts.qtail <- ts.qtail + 1

let queue_pop ts =
  let x = ts.queue.(ts.qhead) in
  ts.queue.(ts.qhead) <- no_xfer;
  ts.qhead <- ts.qhead + 1;
  if ts.qhead = ts.qtail then begin
    ts.qhead <- 0;
    ts.qtail <- 0
  end;
  x

(* Drop every queued transfer but those [keep] accepts, in order. *)
let queue_filter ts keep =
  let live = ref 0 in
  for i = ts.qhead to ts.qtail - 1 do
    let x = ts.queue.(i) in
    ts.queue.(i) <- no_xfer;
    if keep x then begin
      ts.queue.(!live) <- x;
      incr live
    end
  done;
  ts.qhead <- 0;
  ts.qtail <- !live

(* The executing node's finish: infinity while its streamed weights are
   in flight, then Eq. 1 over its components, worked out once.  The
   component fold is Sim.Node_model.duration_and_binding's, written out
   so that nothing is boxed or tupled: compute first, then each
   component in Eq. 1 order, a later one taking over only when strictly
   larger. *)
let[@inline] exec_finish ts =
  let tc = ts.tc in
  if not (Float.is_nan tc.exec_finish) then tc.exec_finish
  else if not ts.stream.Transfer.finished then infinity
  else begin
    let wt_component =
      if ts.stream == no_xfer then 0.
      else ts.stream.Transfer.clk.finished_at -. tc.exec_start
    in
    let binding = ref NM.Compute
    and best = ref ts.tab.profiles.(ts.next).Latency.latc in
    if tc.exec_if > !best then begin
      binding := NM.Input_stream;
      best := tc.exec_if
    end;
    if wt_component > !best then begin
      binding := NM.Weight_stream;
      best := wt_component
    end;
    if tc.exec_of > !best then begin
      binding := NM.Output_stream;
      best := tc.exec_of
    end;
    ts.binding <- !binding;
    tc.exec_finish <- tc.exec_start +. !best;
    tc.exec_finish
  end

(* Wake-up candidates per tenant: when its node state machine can next
   move, and when its held transfer next changes on its own.  Inlined,
   so that neither boxes the time it returns. *)
let[@inline] stage_candidate ts =
  match ts.stage with
  | Entering -> ts.tc.clock
  | Executing -> exec_finish ts
  | Awaiting | Finished -> infinity

let[@inline] xfer_candidate ts now =
  let x = ts.current in
  if x.Transfer.finished then infinity
  else if x.Transfer.clk.rate > 0. then x.Transfer.clk.eta
  else if x.Transfer.clk.blocked_until > now then x.Transfer.clk.blocked_until
  else infinity

(* --- timelines --- *)

(* The run's current instant and the next one the event loop found,
   float-only so writing them stores in place. *)
type instant = { mutable now : float; mutable next_t : float }

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

(* Add [now, t) at utilization [util] to a timeline; returns its closed
   pieces. *)
let[@inline] extend acc closed ~now t util =
  if acc.o_util = util && acc.o_end = now then begin
    acc.o_end <- t;
    closed
  end
  else begin
    let closed =
      if Float.is_nan acc.o_start then closed else closed_piece acc :: closed
    in
    acc.o_start <- now;
    acc.o_end <- t;
    acc.o_util <- util;
    closed
  end

(* The chronological timeline: [closed] (newest first) plus the open
   piece. *)
let finish_timeline acc closed =
  List.rev (if Float.is_nan acc.o_start then closed else closed_piece acc :: closed)

let log_of (x : Transfer.t) =
  let c = x.clk in
  { log_owner = x.owner;
    log_target = x.target;
    log_kind = x.kind;
    log_channel = x.channel;
    log_bytes = c.bytes;
    log_load = c.load;
    log_deadline = c.deadline;
    log_released = c.released_at;
    log_started = c.started_at;
    log_finished = (if x.finished then c.finished_at else -1.) }

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
  let tenants = Array.mapi init_tenant compiled in
  let count = Array.length tenants in
  (* Tenants whose wake-up candidates may have changed since the last
     flush.  Every mutation that can move a candidate time sets the
     owner's flag; [flush_dirty] recomputes those tenants' candidates
     before each [next_event], so the cached ones are always current. *)
  let dirty = Array.make count true in
  (* Each tenant's stage and transfer candidates as of its last flush. *)
  let stage_at = Array.make count infinity in
  let xfer_at = Array.make count infinity in
  let clock = { now = 0.; next_t = 0. } in
  let segments = ref [] and timeline = new_timeline () in
  let channel_segments = Array.make channels [] in
  let channel_timelines = Array.init channels (fun _ -> new_timeline ()) in
  (* Every transfer created, in key order: [xfers.(0 .. nxfers - 1)]. *)
  let xfers =
    ref
      (Array.make
         (16 + Array.fold_left (fun acc ts -> acc + (2 * ts.count)) 0 tenants)
         no_xfer)
  in
  let nxfers = ref 0 in
  (* [enqueue ts kind target clk] creates transfer [nxfers + 1] with the
     clocks the caller built. *)
  let enqueue ts kind target (clk : Transfer.clock) =
    let key = !nxfers + 1 in
    let fails =
      match faults with
      | None -> 0
      | Some inj ->
        clk.stall <- Fault.Injector.stall_seconds inj ~key;
        Fault.Injector.planned_failures inj ~key
    in
    (match rank with
    | None -> ()
    | Some f -> clk.rank <- f ~owner:ts.index ~target kind);
    let x =
      { Transfer.key; priority = ts.priority; owner = ts.index; target; kind;
        channel = channel_of ~owner:ts.index ~target kind; fails; attempt = 0;
        finished = false; clk }
    in
    if !nxfers = Array.length !xfers then begin
      let grown = Array.make (2 * !nxfers) no_xfer in
      Array.blit !xfers 0 grown 0 !nxfers;
      xfers := grown
    end;
    !xfers.(!nxfers) <- x;
    nxfers := key;
    queue_push ts x;
    (match kind with
    | Prefetch_load | Demand_load -> ts.pending_w.(target) <- ts.pending_w.(target) + 1
    | Weight_stream_x -> ());
    x
  in
  (* Release node [ts.next]'s prefetch edges, in PDG order. *)
  let rec release ts tab = function
    | [] -> ()
    | e :: rest ->
      let target = e.Lcmm.Prefetch.target in
      ignore
        (enqueue ts Prefetch_load target
           (new_clock ~now:clock.now
              ~load:(e.Lcmm.Prefetch.load_seconds *. tab.frac.(target))
              ~bytes:tab.once_bytes.(target)
              ~deadline:(ts.tc.clock +. tab.slack.(target))));
      release ts tab rest
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
    if ts.current == no_xfer && ts.qhead < ts.qtail then begin
      let x = queue_pop ts in
      x.clk.settled <- clock.now;
      if x.clk.stall > 0. then begin
        (* Injected head-of-channel stall: the transfer holds the
           channel but is ineligible until the stall passes. *)
        x.clk.blocked_until <- clock.now +. x.clk.stall;
        ts.stall_events <- ts.stall_events + 1
      end;
      ts.current <- x;
      dirty.(ts.index) <- true;
      true
    end
    else false
  in
  (* One zero-time step of a tenant's node state machine; returns whether
     it made progress, and changes nothing when it did not.  The
     arithmetic below mirrors Sim.Engine.simulate through
     Sim.Node_model call for call, which is what makes the single-tenant
     co-simulation bit-identical to the isolated engine. *)
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
        release ts tab ts.released.(id);
        (match tab.demand.(id) with
        | Some load when not ts.edge_flags.(id) ->
          ignore
            (enqueue ts Demand_load id
               (new_clock ~now:clock.now ~load ~bytes:tab.once_bytes.(id)
                  ~deadline:ts.tc.clock))
        | Some _ | None -> ());
        ts.stage <- Awaiting;
        true
      end
    | Awaiting ->
      let id = ts.next in
      let tab = ts.tab in
      let is_pinned = tab.frac.(id) > 0. in
      if is_pinned && ts.pending_w.(id) > 0 then false
      else begin
        let ready = if is_pinned then ts.weight_ready.(id) else 0. in
        let start = fmax ts.tc.clock ready in
        if start > clock.now then false
        else begin
          let tc = ts.tc in
          let wait = start -. tc.clock in
          tc.prefetch_wait <- tc.prefetch_wait +. wait;
          let streamed = tab.streamed.(id) in
          ts.stream <-
            (if streamed <= 0. then no_xfer
             else
               enqueue ts Weight_stream_x id
                 (new_clock ~now:clock.now ~load:streamed
                    ~bytes:tab.stream_bytes.(id) ~deadline:start));
          tc.exec_start <- start;
          tc.exec_wait <- wait;
          tc.exec_if <- tab.if_time.(id);
          tc.exec_of <- tab.of_time.(id);
          tc.exec_finish <- Float.nan;
          ts.binding <- NM.Compute;
          ts.stage <- Executing;
          true
        end
      end
    | Executing ->
      let finish = exec_finish ts in
      if finish > clock.now then false
      else begin
        let id = ts.next in
        let tc = ts.tc in
        ts.timings.(id) <-
          { Sim.Engine.node_id = id; start = tc.exec_start; finish;
            wait = tc.exec_wait; binding = ts.binding };
        tc.ddr <- tc.ddr +. ts.tab.if_bytes.(id) +. ts.tab.of_bytes.(id);
        tc.clock <- finish;
        ts.stream <- no_xfer;
        ts.next <- id + 1;
        ts.stage <- Entering;
        true
      end
  in
  (* Hard tenant abort: drop every queued and in-flight transfer, pin
     the clock at the abort instant and finish the tenant.  Executed
     nodes keep their timings, the executing one its stall; the report
     surfaces the reason. *)
  let abort ts reason =
    dirty.(ts.index) <- true;
    ts.idle <- false;
    ts.aborted <- Some reason;
    (match ts.stage with
    | Executing ->
      ts.timings.(ts.next) <- { unfinished_timing with wait = ts.tc.exec_wait }
    | Entering | Awaiting | Finished -> ());
    queue_filter ts (fun _ -> false);
    ts.current <- no_xfer;
    ts.stream <- no_xfer;
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
        ts.idle <- false;
        (* Keep only the executing node's streamed-weight transfer: the
           node started before the fault and carries its own state. *)
        let keep x = ts.stage = Executing && x == ts.stream in
        queue_filter ts keep;
        if not (keep ts.current) then ts.current <- no_xfer;
        (* The degraded plan's tables, rebuilt for this run alone: the
           compiled input other runs share is never written. *)
        ts.tab <-
          tables ts.tab.input ~on_chip:d.deg_on_chip ~prefetch:d.deg_prefetch;
        (* A tenant caught between release and execution re-enters its
           node: the weights it was waiting for were just cancelled. *)
        (match ts.stage with
        | Awaiting ->
          ts.stage <- Entering;
          ts.tc.clock <- Float.max ts.tc.clock clock.now
        | Entering | Executing | Finished -> ());
        let resume =
          match ts.stage with
          | Entering -> ts.next
          | Executing -> ts.next + 1
          | Finished -> ts.count
          | Awaiting -> assert false
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
  (* Per channel, the tenant holding the scheduler's pick, the tenant
     holding the arbiter's winner among all eligible transfers, and how
     many are eligible (not stalled or backing off); -1 for none.
     Rebuilt in place by each [assign_rates]. *)
  let urgent = Array.make channels (-1) in
  let winner = Array.make channels (-1) in
  let eligible = Array.make channels 0 in
  let exclusive = Scheduler.exclusive scheduler in
  let stripe = 1. /. float_of_int channels in
  (* [Arbiter.share] for k contenders at [2k] (a loser) and [2k + 1]
     (the winner), worked out once per run so that reading a share boxes
     nothing. *)
  let shares =
    Array.init
      (2 * (count + 1))
      (fun j ->
        if j < 2 then 0.
        else Arbiter.share arbitration ~contenders:(j / 2) ~winner:(j mod 2 = 1))
  in
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
      let x = tenants.(i).current in
      if (not x.finished) && x.clk.blocked_until <= clock.now then begin
        let c = x.channel in
        eligible.(c) <- eligible.(c) + 1;
        let u = urgent.(c) in
        if u < 0 || Scheduler.more_urgent scheduler x tenants.(u).current then
          urgent.(c) <- i;
        let w = winner.(c) in
        if w < 0 || Arbiter.preferred x tenants.(w).current then winner.(c) <- i
      end
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
      let x = tenants.(i).current in
      if not x.finished then begin
        let c = x.channel in
        let r =
          if x.clk.blocked_until > clock.now then 0.
          else if exclusive then (if urgent.(c) = i then shares.(3) *. stripe else 0.)
          else
            shares.((2 * eligible.(c)) + if winner.(c) = i then 1 else 0)
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
      end
    done
  in
  let complete_due ts =
    let x = ts.current in
    let xc = x.clk in
    if (not x.finished) && xc.rate > 0. && xc.eta <= clock.now then begin
      dirty.(ts.index) <- true;
      ts.idle <- false;
      if x.attempt < x.fails then begin
        (* Transient failure: the attempt's bytes moved over the bus
           but the payload is bad.  Retry after a capped exponential
           backoff with seeded jitter; past the retry budget the
           tenant aborts. *)
        let at = xc.eta in
        x.attempt <- x.attempt + 1;
        ts.tc.wt_busy <- ts.tc.wt_busy +. xc.load;
        ts.tc.ddr <- ts.tc.ddr +. xc.bytes;
        (match faults with
        | Some inj when x.attempt <= Fault.Injector.max_retries inj ->
          ts.retries <- ts.retries + 1;
          xc.work <- xc.load;
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
        ts.current <- no_xfer;
        ts.tc.wt_busy <- ts.tc.wt_busy +. xc.load;
        ts.tc.ddr <- ts.tc.ddr +. xc.bytes;
        (match x.kind with
        | Prefetch_load ->
          ts.weight_ready.(x.target) <- xc.finished_at;
          ts.pending_w.(x.target) <- ts.pending_w.(x.target) - 1
        | Demand_load ->
          ts.weight_ready.(x.target) <-
            fmax ts.weight_ready.(x.target) xc.finished_at;
          ts.pending_w.(x.target) <- ts.pending_w.(x.target) - 1
        | Weight_stream_x -> ());
        true
      end
    end
    else false
  in
  let all_finished () = Array.for_all is_finished tenants in
  (* A tenant [progress] left unchanged is skipped until something it
     reads changes; skipping it is exact, as such a call changes
     nothing. *)
  let step ts =
    if ts.idle then false
    else if progress ts then begin
      dirty.(ts.index) <- true;
      true
    end
    else begin
      ts.idle <- true;
      false
    end
  in
  (* Exhaust every zero-time transition at the current instant.  Rates
     are a function of the held transfers, their stalls and the instant,
     and stepping a node never changes a held transfer, so the bandwidth
     is re-arbitrated only on the instant's first pass and on a pass
     after a start, a completion (or retry) or a fired fault event: on
     any other pass it would hand out the same rates again. *)
  let settle_instant () =
    for i = 0 to count - 1 do
      tenants.(i).idle <- false
    done;
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
  let flush_dirty () =
    for i = 0 to count - 1 do
      if dirty.(i) then begin
        dirty.(i) <- false;
        let ts = tenants.(i) in
        stage_at.(i) <- stage_candidate ts;
        xfer_at.(i) <- xfer_candidate ts clock.now
      end
    done
  in
  (* The next event instant into [clock.next_t]: the earliest candidate
     or pending fault boundary after [now], infinity for none.  A
     candidate at or before [now] is dead: it stays constant while its
     tenant's state is unchanged, and time only moves forward.  Every
     settle pass already walks the tenant array, so a scan of the cached
     candidates costs what a heap would, and nothing goes stale. *)
  let next_event () =
    clock.next_t <- infinity;
    (match faults with
    | None -> ()
    | Some inj ->
      (match !pending_events with
      | ev :: _ ->
        let t = Fault.Injector.event_time ev in
        if t > clock.now && t < clock.next_t then clock.next_t <- t
      | [] -> ());
      let boundary = Fault.Injector.next_droop_boundary inj ~now:clock.now in
      if boundary < infinity && boundary > clock.now && boundary < clock.next_t
      then clock.next_t <- boundary);
    for i = 0 to count - 1 do
      let s = stage_at.(i) in
      if s > clock.now && s < clock.next_t then clock.next_t <- s;
      let x = xfer_at.(i) in
      if x > clock.now && x < clock.next_t then clock.next_t <- x
    done
  in
  (* Per-channel summed rates, in the same full-bandwidth units as the
     aggregate timeline: the channel timelines always sum to it, and at
     one channel the channel's sum IS the aggregate one (same
     left-to-right float fold over the same transfers), so a one-channel
     run keeps only the aggregate and shares it. *)
  let channel_util = Array.make channels 0. in
  let guard = ref 0 in
  settle_instant ();
  flush_dirty ();
  while not (all_finished ()) do
    incr guard;
    if !guard > 100_000_000 then failwith "Runtime.Engine: event loop stuck";
    next_event ();
    let t = clock.next_t in
    if t = infinity then
      failwith "Runtime.Engine: no runnable event but tenants unfinished";
    if t > clock.now then begin
      let util = ref 0. in
      Array.fill channel_util 0 channels 0.;
      for i = 0 to count - 1 do
        let x = tenants.(i).current in
        if not x.finished then begin
          util := !util +. x.clk.rate;
          channel_util.(x.channel) <- channel_util.(x.channel) +. x.clk.rate
        end
      done;
      segments := extend timeline !segments ~now:clock.now t !util;
      if channels > 1 then
        for c = 0 to channels - 1 do
          channel_segments.(c) <-
            extend channel_timelines.(c) channel_segments.(c) ~now:clock.now t
              channel_util.(c)
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
  let makespan = Array.fold_left (fun acc r -> fmax acc r.finish) 0. runs in
  let timeline = finish_timeline timeline !segments in
  let channel_timelines =
    if channels = 1 then [| timeline |]
    else
      Array.mapi (fun c acc -> finish_timeline acc channel_segments.(c))
        channel_timelines
  in
  let transfers = ref [] in
  for k = !nxfers - 1 downto 0 do
    transfers := log_of !xfers.(k) :: !transfers
  done;
  { tenants = runs; makespan; timeline; channels; channel_timelines;
    transfers = !transfers }

let run ~arbitration ~scheduler ?channels ?assign ?rank ?faults inputs =
  run_compiled ~arbitration ~scheduler ?channels ?assign ?rank ?faults
    (Array.map compile inputs)
