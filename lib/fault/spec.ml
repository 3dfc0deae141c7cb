(* A seeded, deterministic board-fault model.  LCMM plans against a
   fixed SRAM capacity and a fixed DDR bandwidth; on a real board both
   degrade — thermal throttling shrinks effective bandwidth, ECC faults
   drop URAM/BRAM banks, links hiccup.  A [Spec.t] describes those
   faults as data so a run can be replayed bit-identically from the same
   seed.

   The textual grammar (the CLI's [--faults SPEC]) is a comma-separated
   clause list; times are milliseconds of simulated time:

     seed=N                    derivation seed for stochastic draws
     droop@T:DUR:FACTOR        DDR bandwidth scaled by FACTOR in [T, T+DUR)
     stall:PROB:MS             transfer-start stall probability / mean stall
     fail:PROB                 per-attempt transient transfer failure
     retries=N                 retry budget before a failing transfer aborts
     backoff=BASE:CAP          exponential retry backoff base / cap (ms)
     bankloss@T:BYTES[:TEN]    SRAM bank loss for tenant TEN (default 0)
     abort@T:TEN               hard tenant abort

   Transport clauses describe faults on the serving tier's router->shard
   connections (the CLI's [lcmm tier --chaos SPEC]); they are inert for
   the board runtime and probabilities are per connection attempt:

     delay:PROB:MS             added response latency (jittered mean MS)
     hang:PROB                 shard accepts the request, never answers
     trunc:PROB                response line cut short mid-byte
     corrupt:PROB              one response byte flipped
     reset:PROB                connection reset before the response
     slowshard@IDX:F           shard IDX serves F x slower (F >= 1)

   Byte counts accept k/K (KiB) and m/M (MiB) suffixes.  The internal
   representation is seconds and bytes. *)

module Json = Dnn_serial.Json

type droop = {
  droop_start : float;    (* seconds *)
  droop_duration : float; (* seconds *)
  droop_factor : float;   (* (0, 1]: surviving fraction of bandwidth *)
}

type bank_loss = {
  loss_at : float;   (* seconds *)
  loss_bytes : int;
  loss_tenant : int; (* index into the co-simulated admitted set *)
}

type abort_event = { abort_at : float; abort_tenant : int }

type slow_shard = {
  slow_index : int;    (* shard index in sorted ring-member order *)
  slow_factor : float; (* >= 1: multiplier on observed service time *)
}

type t = {
  seed : int;
  droops : droop list;
  stall_prob : float;
  stall_seconds : float; (* mean stall at a transfer start *)
  fail_prob : float;     (* per-attempt transient failure probability *)
  max_retries : int;
  backoff_base : float;  (* seconds *)
  backoff_cap : float;   (* seconds *)
  bank_losses : bank_loss list;
  aborts : abort_event list;
  (* transport faults (serving tier router->shard path) *)
  t_delay_prob : float;
  t_delay_seconds : float; (* mean injected response delay *)
  t_hang_prob : float;
  t_trunc_prob : float;
  t_corrupt_prob : float;
  t_reset_prob : float;
  slow_shards : slow_shard list;
}

let default_retries = 3
let default_backoff_base = 5e-5 (* 0.05 ms *)
let default_backoff_cap = 2e-3  (* 2 ms *)

let empty =
  { seed = 0;
    droops = [];
    stall_prob = 0.;
    stall_seconds = 0.;
    fail_prob = 0.;
    max_retries = default_retries;
    backoff_base = default_backoff_base;
    backoff_cap = default_backoff_cap;
    bank_losses = [];
    aborts = [];
    t_delay_prob = 0.;
    t_delay_seconds = 0.;
    t_hang_prob = 0.;
    t_trunc_prob = 0.;
    t_corrupt_prob = 0.;
    t_reset_prob = 0.;
    slow_shards = [] }

(* Board faults drive the runtime co-simulation; a run-op spec without
   any is normalised away so the no-fault path (and its bit-exact
   output) is untouched. *)
let has_board_faults t =
  t.droops <> []
  || (t.stall_prob > 0. && t.stall_seconds > 0.)
  || t.fail_prob > 0.
  || t.bank_losses <> []
  || t.aborts <> []

(* Transport faults drive the tier's chaos layer; a spec without any
   leaves the router->shard path untouched (chaos-off byte identity). *)
let has_transport_faults t =
  (t.t_delay_prob > 0. && t.t_delay_seconds > 0.)
  || t.t_hang_prob > 0.
  || t.t_trunc_prob > 0.
  || t.t_corrupt_prob > 0.
  || t.t_reset_prob > 0.
  || t.slow_shards <> []

(* Intensity-ladder support: scale every transport probability by
   [factor] (clamped to [0,1]); delay magnitude and slowshard factors
   are left alone so a rung changes how often faults fire, not what
   each fault does. *)
let scale_transport t factor =
  let p v = Float.max 0. (Float.min 1. (v *. factor)) in
  { t with
    t_delay_prob = p t.t_delay_prob;
    t_hang_prob = p t.t_hang_prob;
    t_trunc_prob = p t.t_trunc_prob;
    t_corrupt_prob = p t.t_corrupt_prob;
    t_reset_prob = p t.t_reset_prob }

(* --- parsing --- *)

let ( let* ) = Result.bind

let parse_float ~what s =
  match float_of_string_opt (String.trim s) with
  | Some v when Float.is_finite v -> Ok v
  | _ -> Error (Printf.sprintf "%s: not a number (%S)" what s)

let parse_prob ~what s =
  let* v = parse_float ~what s in
  if v < 0. || v > 1. then
    Error (Printf.sprintf "%s: probability %g outside [0,1]" what v)
  else Ok v

let parse_ms ~what s =
  let* v = parse_float ~what s in
  if v < 0. then Error (Printf.sprintf "%s: negative time %g ms" what v)
  else Ok (v /. 1e3)

let parse_int ~what s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: not an integer (%S)" what s)

let parse_bytes ~what s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then Error (Printf.sprintf "%s: empty byte count" what)
  else
    let scale, body =
      match s.[n - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    let* v = parse_int ~what body in
    if v < 0 then Error (Printf.sprintf "%s: negative byte count" what)
    else Ok (v * scale)

let split_on sep s = String.split_on_char sep s |> List.map String.trim

let parse_clause spec clause =
  match String.index_opt clause '=' with
  | Some i ->
    let key = String.sub clause 0 i in
    let value = String.sub clause (i + 1) (String.length clause - i - 1) in
    (match key with
    | "seed" ->
      let* seed = parse_int ~what:"seed" value in
      Ok { spec with seed }
    | "retries" ->
      let* r = parse_int ~what:"retries" value in
      if r < 0 then Error "retries: must be non-negative"
      else Ok { spec with max_retries = r }
    | "backoff" -> (
      match split_on ':' value with
      | [ base; cap ] ->
        let* backoff_base = parse_ms ~what:"backoff base" base in
        let* backoff_cap = parse_ms ~what:"backoff cap" cap in
        if backoff_cap < backoff_base then
          Error "backoff: cap below base"
        else Ok { spec with backoff_base; backoff_cap }
      | _ -> Error "backoff: expected BASE_MS:CAP_MS")
    | _ -> Error "unknown clause")
  | None -> (
    match String.index_opt clause '@' with
    | Some i -> (
      let key = String.sub clause 0 i in
      let value = String.sub clause (i + 1) (String.length clause - i - 1) in
      match key, split_on ':' value with
      | "droop", [ start; dur; factor ] ->
        let* droop_start = parse_ms ~what:"droop start" start in
        let* droop_duration = parse_ms ~what:"droop duration" dur in
        let* droop_factor = parse_float ~what:"droop factor" factor in
        if droop_duration <= 0. then Error "droop: duration must be positive"
        else if droop_factor <= 0. || droop_factor > 1. then
          Error (Printf.sprintf "droop: factor %g outside (0,1]" droop_factor)
        else
          Ok { spec with droops = spec.droops @ [ { droop_start; droop_duration; droop_factor } ] }
      | "bankloss", (t :: bytes :: rest) ->
        let* loss_at = parse_ms ~what:"bankloss time" t in
        let* loss_bytes = parse_bytes ~what:"bankloss bytes" bytes in
        let* loss_tenant =
          match rest with
          | [] -> Ok 0
          | [ ten ] -> parse_int ~what:"bankloss tenant" ten
          | _ -> Error "bankloss: expected T_MS:BYTES[:TENANT]"
        in
        Ok { spec with
             bank_losses = spec.bank_losses @ [ { loss_at; loss_bytes; loss_tenant } ] }
      | "abort", [ t; ten ] ->
        let* abort_at = parse_ms ~what:"abort time" t in
        let* abort_tenant = parse_int ~what:"abort tenant" ten in
        Ok { spec with aborts = spec.aborts @ [ { abort_at; abort_tenant } ] }
      | "slowshard", [ idx; factor ] ->
        let* slow_index = parse_int ~what:"slowshard index" idx in
        let* slow_factor = parse_float ~what:"slowshard factor" factor in
        if slow_index < 0 then Error "slowshard: index must be non-negative"
        else if slow_factor < 1. then
          Error (Printf.sprintf "slowshard: factor %g below 1" slow_factor)
        else
          Ok { spec with
               slow_shards = spec.slow_shards @ [ { slow_index; slow_factor } ] }
      | "slowshard", _ -> Error "slowshard: expected IDX:FACTOR"
      | _ -> Error "unknown clause")
    | None -> (
      match split_on ':' clause with
      | [ "stall"; prob; ms ] ->
        let* stall_prob = parse_prob ~what:"stall probability" prob in
        let* stall_seconds = parse_ms ~what:"stall duration" ms in
        Ok { spec with stall_prob; stall_seconds }
      | [ "fail"; prob ] ->
        let* fail_prob = parse_prob ~what:"fail probability" prob in
        Ok { spec with fail_prob }
      | [ "delay"; prob; ms ] ->
        let* t_delay_prob = parse_prob ~what:"delay probability" prob in
        let* t_delay_seconds = parse_ms ~what:"delay duration" ms in
        Ok { spec with t_delay_prob; t_delay_seconds }
      | [ "hang"; prob ] ->
        let* t_hang_prob = parse_prob ~what:"hang probability" prob in
        Ok { spec with t_hang_prob }
      | [ "trunc"; prob ] ->
        let* t_trunc_prob = parse_prob ~what:"trunc probability" prob in
        Ok { spec with t_trunc_prob }
      | [ "corrupt"; prob ] ->
        let* t_corrupt_prob = parse_prob ~what:"corrupt probability" prob in
        Ok { spec with t_corrupt_prob }
      | [ "reset"; prob ] ->
        let* t_reset_prob = parse_prob ~what:"reset probability" prob in
        Ok { spec with t_reset_prob }
      | ("delay" | "hang" | "trunc" | "corrupt" | "reset" | "stall" | "fail")
        :: _ ->
        Error "wrong number of arguments"
      | _ -> Error "unknown clause"))

(* Parse errors name the offending clause and its character position in
   the original spec string, so a long comma-separated spec fails with a
   pointer instead of a bare reason. *)
let of_string s =
  let n = String.length s in
  let rec go spec idx start =
    if start >= n + 1 then Ok spec
    else begin
      let stop =
        match String.index_from_opt s (min start n) ',' with
        | Some i -> i
        | None -> n
      in
      let raw = if start >= n then "" else String.sub s start (stop - start) in
      let clause = String.trim raw in
      if clause = "" then go spec idx (stop + 1)
      else
        match parse_clause spec clause with
        | Ok spec -> go spec (idx + 1) (stop + 1)
        | Error msg ->
          let blank = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false in
          let lead = ref 0 in
          while !lead < String.length raw && blank raw.[!lead] do incr lead done;
          Error
            (Printf.sprintf "clause %d (%S) at char %d: %s" idx clause
               (start + !lead) msg)
    end
  in
  go empty 1 0

(* Canonical rendering: round-trips through [of_string]. *)
let to_string t =
  let ms v = Printf.sprintf "%g" (v *. 1e3) in
  let clauses =
    (if t.seed <> 0 then [ Printf.sprintf "seed=%d" t.seed ] else [])
    @ List.map
        (fun d ->
          Printf.sprintf "droop@%s:%s:%g" (ms d.droop_start) (ms d.droop_duration)
            d.droop_factor)
        t.droops
    @ (if t.stall_prob > 0. && t.stall_seconds > 0. then
         [ Printf.sprintf "stall:%g:%s" t.stall_prob (ms t.stall_seconds) ]
       else [])
    @ (if t.fail_prob > 0. then [ Printf.sprintf "fail:%g" t.fail_prob ] else [])
    @ (if t.max_retries <> default_retries then
         [ Printf.sprintf "retries=%d" t.max_retries ]
       else [])
    @ (if t.backoff_base <> default_backoff_base || t.backoff_cap <> default_backoff_cap
       then [ Printf.sprintf "backoff=%s:%s" (ms t.backoff_base) (ms t.backoff_cap) ]
       else [])
    @ List.map
        (fun b ->
          Printf.sprintf "bankloss@%s:%d:%d" (ms b.loss_at) b.loss_bytes b.loss_tenant)
        t.bank_losses
    @ List.map
        (fun a -> Printf.sprintf "abort@%s:%d" (ms a.abort_at) a.abort_tenant)
        t.aborts
    @ (if t.t_delay_prob > 0. && t.t_delay_seconds > 0. then
         [ Printf.sprintf "delay:%g:%s" t.t_delay_prob (ms t.t_delay_seconds) ]
       else [])
    @ (if t.t_hang_prob > 0. then [ Printf.sprintf "hang:%g" t.t_hang_prob ]
       else [])
    @ (if t.t_trunc_prob > 0. then [ Printf.sprintf "trunc:%g" t.t_trunc_prob ]
       else [])
    @ (if t.t_corrupt_prob > 0. then
         [ Printf.sprintf "corrupt:%g" t.t_corrupt_prob ]
       else [])
    @ (if t.t_reset_prob > 0. then [ Printf.sprintf "reset:%g" t.t_reset_prob ]
       else [])
    @ List.map
        (fun sl ->
          Printf.sprintf "slowshard@%d:%g" sl.slow_index sl.slow_factor)
        t.slow_shards
  in
  String.concat "," clauses

let to_json t =
  Json.Obj
    [ ("seed", Json.Int t.seed);
      ("droops",
       Json.List
         (List.map
            (fun d ->
              Json.Obj
                [ ("t0_ms", Json.Float (d.droop_start *. 1e3));
                  ("dur_ms", Json.Float (d.droop_duration *. 1e3));
                  ("factor", Json.Float d.droop_factor) ])
            t.droops));
      ("stall_prob", Json.Float t.stall_prob);
      ("stall_ms", Json.Float (t.stall_seconds *. 1e3));
      ("fail_prob", Json.Float t.fail_prob);
      ("max_retries", Json.Int t.max_retries);
      ("backoff_base_ms", Json.Float (t.backoff_base *. 1e3));
      ("backoff_cap_ms", Json.Float (t.backoff_cap *. 1e3));
      ("bank_losses",
       Json.List
         (List.map
            (fun b ->
              Json.Obj
                [ ("t_ms", Json.Float (b.loss_at *. 1e3));
                  ("bytes", Json.Int b.loss_bytes);
                  ("tenant", Json.Int b.loss_tenant) ])
            t.bank_losses));
      ("aborts",
       Json.List
         (List.map
            (fun a ->
              Json.Obj
                [ ("t_ms", Json.Float (a.abort_at *. 1e3));
                  ("tenant", Json.Int a.abort_tenant) ])
            t.aborts));
      ("delay_prob", Json.Float t.t_delay_prob);
      ("delay_ms", Json.Float (t.t_delay_seconds *. 1e3));
      ("hang_prob", Json.Float t.t_hang_prob);
      ("trunc_prob", Json.Float t.t_trunc_prob);
      ("corrupt_prob", Json.Float t.t_corrupt_prob);
      ("reset_prob", Json.Float t.t_reset_prob);
      ("slow_shards",
       Json.List
         (List.map
            (fun sl ->
              Json.Obj
                [ ("shard", Json.Int sl.slow_index);
                  ("factor", Json.Float sl.slow_factor) ])
            t.slow_shards)) ]
