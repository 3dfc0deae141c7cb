(* Helpers shared by the lcmm subcommands and the bench experiments:
   one-line fatal errors, the one --json writer, and spawning a sharded
   tier of `lcmm serve` children. *)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("lcmm: " ^ msg);
    exit 1

(* Every --json document: indented, newline-terminated. *)
let write_json path doc =
  Lcmm.Report.write_text_file ~path
    (Dnn_serial.Json.to_string ~indent:2 doc ^ "\n")

let rm_rf_sockets dir =
  (* Only what the tier itself created: socket files and the (then
     empty) socket directory. *)
  match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun e ->
        let p = Filename.concat dir e in
        if Filename.check_suffix e ".sock" then
          try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      entries;
    (try Unix.rmdir dir with Unix.Unix_error _ | Sys_error _ -> ())
  | exception Sys_error _ -> ()

let tier_socket_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lcmm-tier-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* Spawn [shards] copies of this very binary as `lcmm serve --socket ...`
   children and build the router over them.  Returns the tier and a
   cleanup closure (idempotent: kill + reap every child, remove every
   socket file).  Anything raised on the way (a ring or router argument
   rejected) first stops every child already spawned. *)
let spawn_tier ~shards ~workers ~vnodes ~max_inflight ~cache_entries
    ~cache_mb ~cache_dir ~deadline_ms ~router_cache_entries ~router_cache_mb
    ~timing ?retries ?retry_backoff_ms ?hedge_ms ?call_timeout_ms ?chaos
    ?breaker_threshold ~socket_dir () =
  if shards < 1 then or_die (Error "shards must be >= 1");
  let spawned = ref [] in
  let cleanup () =
    List.iter Lcmm_tier.Shard.stop !spawned;
    spawned := [];
    rm_rf_sockets socket_dir
  in
  let shard_of i =
    let name = Printf.sprintf "shard-%d" i in
    let socket = Filename.concat socket_dir (name ^ ".sock") in
    let argv =
      [ Sys.executable_name; "serve"; "--socket"; socket; "--workers";
        string_of_int workers; "--cache-entries"; string_of_int cache_entries;
        "--cache-mb"; string_of_int cache_mb ]
      @ (match cache_dir with
        | None -> []
        | Some dir -> [ "--cache-dir"; Filename.concat dir name ])
      @
      match deadline_ms with
      | None -> []
      | Some ms -> [ "--deadline-ms"; string_of_float ms ]
    in
    match
      Lcmm_tier.Shard.spawn ~name ~socket ~max_inflight ?breaker_threshold
        (Array.of_list argv)
    with
    | Ok s ->
      spawned := s :: !spawned;
      s
    | Error msg ->
      cleanup ();
      or_die (Error msg)
  in
  match
    let shard_list = List.init shards shard_of in
    let ring =
      Lcmm_tier.Ring.create ~vnodes (List.map Lcmm_tier.Shard.name shard_list)
    in
    Lcmm_tier.Tier.create ~router_cache_entries ~router_cache_mb ?deadline_ms
      ~timing ?retries ?retry_backoff_ms ?hedge_ms ?call_timeout_ms ?chaos
      ~ring ~shards:shard_list ()
  with
  | tier -> (tier, cleanup)
  | exception e ->
    cleanup ();
    raise e

