(** DRAM communication-schedule search.

    Proposes transfer orders by beam search over the tenants' static
    transfer profiles (per-channel busy timelines, minimizing exposed
    stall) plus deterministic heuristic orders (high-priority-first,
    least-laxity, shortest-first), evaluates every candidate *exactly*
    with the engine alongside the [Greedy] and [Edf] baselines, and
    returns the best by (makespan, then high-priority-tenant slowdown,
    then candidate index).  Because the baselines are in the portfolio,
    the chosen schedule's makespan is [<= min(greedy, edf)] by
    construction — the invariant the ci gate and the schedule-conserve
    oracle check.  Deterministic for fixed inputs; candidate evaluation
    fans out on the domain pool when one is given.

    Each call compiles its tenants once ({!Engine.compile}); the
    transfer profiles and every candidate run ({!Engine.run_compiled})
    read those tables, shared read-only across the pool's domains.
    Nothing is kept between calls.  The candidate runs are most of a
    search's time, so a searched order's rank table is a dense
    per-tenant float array over (target, kind) slots, read without
    hashing or allocating a key per transfer, and the heuristic orders
    sort with [Int.compare]/[Float.compare] chains rather than
    polymorphic [compare] on freshly built tuples (the same sign, so the
    same orders).  The beam keeps its states in double-buffered flat
    arrays, picks each step's [beam_width] least expansions by (stall,
    finish sum, expansion number) under [compare] — what a stable sort
    keeps — and rebuilds its orders from parent links at the end.
    Without a pool the candidates run one at a time and only the
    winning {!Engine.result} is kept. *)

type outcome = {
  result : Engine.result;          (** The winning candidate's exact run. *)
  chosen : string;                 (** Its label ("greedy", "edf", "orderN"). *)
  hp_slowdown : float;             (** Winner's worst slowdown over the
                                       highest-priority tenants. *)
  candidates : (string * float) list;
      (** Every evaluated candidate with its makespan, in evaluation
          order (baselines first, searched orders after). *)
}

val search :
  ?pool:Lcmm.Pool.t ->
  ?hp_first:bool ->
  arbitration:Arbiter.t ->
  channels:int ->
  ?assign:(owner:int -> target:int -> Engine.kind -> int) ->
  ?make_faults:(unit -> Fault.Injector.t option) ->
  isos:Sim.Engine.run array ->
  Engine.tenant_input array ->
  outcome
(** [search ~arbitration ~channels ~isos inputs] — [isos.(i)] must be
    tenant [i]'s isolated run (same plan as [inputs.(i)]); it anchors
    the static release/deadline estimates and the slowdown denominator.
    [make_faults] is called once per candidate evaluation so each gets a
    fresh injector (fault decisions are seed+key pure, so candidates
    see identical fault schedules).  The beam search keeps 4 states.

    Only candidates whose makespan is at or below [min(greedy, edf)] are
    selectable.  Within that set, [hp_first] (default false; the runtime
    sets it under priority arbitration) minimizes the high-priority
    slowdown before makespan; otherwise makespan comes first. *)
