(** One DDR weight transfer as the engine holds it while it runs.

    The {!Scheduler} and the {!Arbiter} read these fields directly when
    they pick a channel's contenders, so a transfer is exactly two heap
    blocks: this record and its float-only {!clock}, which OCaml stores
    flat, so the engine's writes to it box nothing. *)

type kind = Prefetch_load | Demand_load | Weight_stream_x
(** DDR transfer kinds: PDG-scheduled weight prefetches, weight loads
    demanded at node entry, and streamed tiles of unpinned weight
    remainders. *)

type clock = {
  mutable rank : float;      (** Searched-order rank (lower = earlier); 0
                                 when no rank table is in force. *)
  deadline : float;          (** Absolute time by which it should finish. *)
  load : float;              (** Seconds at full aggregate bandwidth. *)
  bytes : float;
  released_at : float;       (** Queue-entry instant (its PDG release). *)
  mutable stall : float;     (** Injected head-of-channel stall; 0 = none. *)
  mutable work : float;      (** Remaining seconds at full bandwidth. *)
  mutable rate : float;      (** Granted fraction of the aggregate bandwidth. *)
  mutable settled : float;   (** When [work] was last brought up to date. *)
  mutable eta : float;       (** Projected finish under [rate]; infinity at 0. *)
  mutable started_at : float;    (** First instant with positive rate; -1 = never. *)
  mutable blocked_until : float; (** Stalled or backing off until this time. *)
  mutable finished_at : float;
}

type t = {
  key : int;               (** Unique, in creation order. *)
  priority : int;          (** Owning tenant's priority (lower = higher). *)
  owner : int;             (** Tenant index. *)
  target : int;            (** Node the transfer feeds. *)
  kind : kind;
  channel : int;           (** DDR channel the transfer is bound to. *)
  fails : int;             (** Planned transient failures before success. *)
  mutable attempt : int;   (** Failures consumed so far. *)
  mutable finished : bool;
  clk : clock;
}

val make : key:int -> priority:int -> deadline:float -> rank:float -> t
(** A queued transfer with only the fields the {!Scheduler} and
    {!Arbiter} read set: tenant 0, node 0, a demand load on channel 0
    with no load.  For driving the policies' list forms directly. *)
