module Json = Dnn_serial.Json

type t = {
  lru : Json.compact Lru.t;  (* each payload's compact rendering only *)
  mutex : Mutex.t;
  persist_dir : string option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable disk_loads : int;
  mutable quarantined : int;
}

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  disk_loads : int;
  quarantined : int;
}

let src = Logs.Src.create "lcmm.service.cache" ~doc:"Plan cache"

module Log = (val Logs.src_log src : Logs.LOG)

let with_lock t fn =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) fn

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(max_entries = 256) ?(max_bytes = 64 * 1024 * 1024) ?persist_dir () =
  Option.iter mkdir_p persist_dir;
  { lru = Lru.create ~max_entries ~max_bytes;
    mutex = Mutex.create ();
    persist_dir;
    hits = 0;
    misses = 0;
    evictions = 0;
    disk_loads = 0;
    quarantined = 0 }

(* Digests are hex strings produced by us, but harden the path anyway:
   anything beyond [0-9a-f] never names a persisted entry. *)
let persist_path t digest =
  match t.persist_dir with
  | None -> None
  | Some dir ->
    if digest <> "" && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) digest
    then Some (Filename.concat dir (digest ^ ".json"))
    else None

(* On-disk entries are an envelope wrapping the payload together with
   its reply sum ({!Dnn_serial.Wire.sum_of}), so a truncated, bit-flipped
   or hand-edited file is detected on load rather than silently served. *)
let envelope_of payload =
  Json.Obj
    [ ("sha", Json.String (Dnn_serial.Wire.sum_of payload));
      ("payload", payload) ]

(* A file that fails to parse or to verify is moved aside to
   [<entry>.corrupt] — out of the lookup path, but kept for inspection
   instead of deleted. *)
let quarantine (t : t) path ~why =
  t.quarantined <- t.quarantined + 1;
  Log.warn (fun m -> m "quarantining persisted entry %s: %s" path why);
  try Sys.rename path (path ^ ".corrupt")
  with Sys_error msg ->
    Log.warn (fun m -> m "failed to quarantine %s: %s" path msg)

let decode_envelope content =
  match Json.of_string content with
  | Error msg -> Error ("unparseable: " ^ msg)
  | Ok v -> (
    match Json.member_opt "sha" v, Json.member_opt "payload" v with
    | Some (Json.String sha), Some payload ->
      let rendered = Json.compact payload in
      if String.equal sha (Dnn_serial.Wire.sum_of (Json.Raw rendered)) then
        Ok rendered
      else Error "checksum mismatch"
    | _ -> Error "missing envelope fields")

let load_persisted t digest =
  match persist_path t digest with
  | None -> None
  | Some path when not (Sys.file_exists path) -> None
  | Some path -> (
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg ->
      Log.warn (fun m -> m "unreadable persisted entry %s: %s" path msg);
      None
    | content -> (
      match decode_envelope content with
      | Ok rendered -> Some rendered
      | Error why ->
        quarantine t path ~why;
        None))

(* Unique temp names: two domains (or two processes) persisting the same
   digest concurrently must never interleave writes into one temp file.
   The final rename is atomic either way. *)
let tmp_counter = Atomic.make 0

let store_persisted t digest payload =
  match persist_path t digest with
  | None -> ()
  | Some path -> (
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_counter 1)
    in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Json.to_string (envelope_of payload)));
      Sys.rename tmp path
    with
    | () -> ()
    | exception Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Log.warn (fun m -> m "failed to persist %s: %s" path msg))

let insert t digest rendered =
  let bytes = String.length (Json.to_string (Json.Raw rendered)) in
  let evicted = Lru.add t.lru ~key:digest ~bytes rendered in
  t.evictions <- t.evictions + List.length evicted

let find t digest =
  with_lock t (fun () ->
      match Lru.find t.lru digest with
      | Some rendered ->
        t.hits <- t.hits + 1;
        Some (Json.Raw rendered)
      | None -> (
        match load_persisted t digest with
        | Some rendered ->
          t.hits <- t.hits + 1;
          t.disk_loads <- t.disk_loads + 1;
          insert t digest rendered;
          Some (Json.Raw rendered)
        | None ->
          t.misses <- t.misses + 1;
          None))

let put t digest payload =
  let rendered = Json.compact payload in
  with_lock t (fun () ->
      insert t digest rendered;
      store_persisted t digest (Json.Raw rendered))

let stats t =
  with_lock t (fun () ->
      { entries = Lru.length t.lru;
        bytes = Lru.total_bytes t.lru;
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        disk_loads = t.disk_loads;
        quarantined = t.quarantined })

let stats_json t =
  let s = stats t in
  Json.Obj
    [ ("entries", Json.Int s.entries); ("bytes", Json.Int s.bytes);
      ("hits", Json.Int s.hits); ("misses", Json.Int s.misses);
      ("evictions", Json.Int s.evictions);
      ("disk_loads", Json.Int s.disk_loads);
      ("quarantined", Json.Int s.quarantined) ]
