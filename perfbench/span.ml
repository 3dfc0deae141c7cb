(* In-memory spans for the traced run.

   A span is one call into a layer's public function, timed from the
   benchmark around that call: name, start, stop, the span that caused
   it and the request it belongs to.  Spans are kept in memory and
   written out once, when the run ends.

   Calls a layer makes internally cannot be wrapped from outside the
   library, so the traced run re-invokes those inner public functions on
   the same inputs right after the outer call returns and records them
   as children of the outer span ([replay] spans).  A span's self time
   is therefore its duration minus the summed durations of its children,
   whether they ran inside its interval or were replayed after it. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root. *)
  name : string;
  req : int;     (** Operation index within the traced run. *)
  start : float;
  stop : float;
  replay : bool;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let add t ?(parent = -1) ?(replay = false) ~req name start stop =
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; name; req; start; stop; replay } :: t.spans;
  id

(* Open a span around [f]; [f] receives the new span's id so its callees
   can name it as their parent. *)
let within t ?parent ~req name f =
  let id = t.next in
  t.next <- id + 1;
  let start = Clock.now () in
  let r = f id in
  let stop = Clock.now () in
  t.spans <- { id; parent = Option.value parent ~default:(-1); name; req;
               start; stop; replay = false } :: t.spans;
  r

(* Time [f] as a replayed child of [parent]. *)
let replay t ~parent ~req name f =
  let r, start, stop = Clock.time f in
  ignore (add t ~parent ~replay:true ~req name start stop);
  r

let all t = List.rev t.spans

let duration s = s.stop -. s.start

(* Self time of every span, keyed by span id. *)
let self_times spans =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace tbl s.id (duration s)) spans;
  List.iter
    (fun s ->
      if s.parent >= 0 then
        match Hashtbl.find_opt tbl s.parent with
        | Some v -> Hashtbl.replace tbl s.parent (v -. duration s)
        | None -> ())
    spans;
  tbl

(* Chrome trace-event JSON (loads in Perfetto): one complete event per
   span, microseconds from the first span's start. *)
let to_trace_json spans =
  let module Json = Dnn_serial.Json in
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity spans
  in
  Json.Obj
    [ ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("name", Json.String s.name);
                   ("ph", Json.String "X");
                   ("ts", Json.Float ((s.start -. t0) *. 1e6));
                   ("dur", Json.Float (duration s *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int (if s.replay then 2 else 1));
                   ( "args",
                     Json.Obj
                       [ ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("req", Json.Int s.req);
                         ("replay", Json.Bool s.replay) ] ) ])
             spans) ) ]
