(** A fixed-size worker pool on OCaml 5 domains.

    The LCMM passes are pure functions of their inputs (no global
    mutable state anywhere in [lib/core], [lib/accel] or [lib/sim]), so
    independent compile/simulate requests, per-tenant solves and
    schedule-search candidates are safe to run on separate domains with
    no coordination beyond this queue.  One plan always runs on one
    domain.

    Jobs are closures; submitting returns a future that [await] blocks
    on.  Ordinary exceptions escaping a job are captured and re-raised
    (or returned) at the await site, never killing a worker.  Crash
    exceptions ({!Worker_crash}, [Stack_overflow], [Out_of_memory])
    additionally take the worker down after completing the job's future
    — a supervisor restarts it in place and bumps {!restarts}, so the
    pool keeps its full width and the in-flight request is answered
    with the error rather than hanging. *)

type t

exception Worker_crash of string
(** A designated worker-killing failure: the job's future fails with
    it, the executing worker dies and is restarted by the supervisor. *)

val create : ?domains:int -> unit -> t
(** Spawn the worker domains.  [domains] defaults to
    [Domain.recommended_domain_count () - 1], clamped to [1, 8]; values
    below 1 or above 127 (OCaml 5.1 runs at most 128 domains, the
    caller's included) raise [Invalid_argument] before any domain is
    spawned. *)

val size : t -> int
(** Number of worker domains. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> ('a, exn) result

val await_within : seconds:float -> 'a future -> ('a, exn) result option
(** Like {!await} but gives up after [seconds], returning [None].  The
    job itself is not cancelled — it keeps its worker until it finishes;
    the caller merely stops waiting (the service turns [None] into a
    structured deadline-exceeded error).  A non-positive budget checks
    once and returns immediately. *)

val run : t -> (unit -> 'a) -> 'a
(** [submit] then [await], re-raising the job's exception. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel map preserving order.  While its futures are pending the
    caller *helps*: it drains queued jobs and runs them inline instead
    of blocking, so calling [map_list] from inside a pool job is safe —
    nested fan-outs keep making progress even with every worker busy.
    The caller only blocks once the queue is empty, at which point its
    remaining futures are necessarily running on other domains. *)

val busy : t -> int
(** Workers currently executing a job. *)

val queued : t -> int
(** Jobs accepted but not yet started. *)

val restarts : t -> int
(** Workers restarted by the supervisor after a crash. *)

val shutdown : t -> unit
(** Drain the queue, join every domain.  Idempotent. *)
