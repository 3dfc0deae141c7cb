type kind = Prefetch_load | Demand_load | Weight_stream_x

type clock = {
  mutable rank : float;
  deadline : float;
  load : float;
  bytes : float;
  released_at : float;
  mutable stall : float;
  mutable work : float;
  mutable rate : float;
  mutable settled : float;
  mutable eta : float;
  mutable started_at : float;
  mutable blocked_until : float;
  mutable finished_at : float;
}

type t = {
  key : int;
  priority : int;
  owner : int;
  target : int;
  kind : kind;
  channel : int;
  fails : int;
  mutable attempt : int;
  mutable finished : bool;
  clk : clock;
}

let make ~key ~priority ~deadline ~rank =
  { key; priority; owner = 0; target = 0; kind = Demand_load; channel = 0;
    fails = 0; attempt = 0; finished = false;
    clk =
      { rank; deadline; load = 0.; bytes = 0.; released_at = 0.; stall = 0.;
        work = 0.; rate = 0.; settled = 0.; eta = infinity; started_at = -1.;
        blocked_until = 0.; finished_at = 0. } }
