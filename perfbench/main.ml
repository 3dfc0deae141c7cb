(* The benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints what it measured, one metric per line, and as its last line a
   JSON object {correct, attempted, failed, metrics}.  With --trace 0
   the metrics are the end-to-end ones, from the untraced timed phase;
   with --trace 1 the run also replays the sequence with every layer
   call in a span and reports the per-layer metrics instead.  It exits
   1 when an output check failed and 2 when it could not run.

     main.exe --workload plan-scale --record-reference

   rewrites the stored plan digests (serve-cold and runtime-mix
   likewise), and
   --plan-skip N reproduces the planning limit; see README.md. *)

module Json = Dnn_serial.Json
module H = Harness

let workloads = [ "serve-warm"; "serve-cold"; "plan-scale"; "runtime-mix" ]

let reference_path = "perfbench/reference.json"

(* Simulated metrics a workload does not compute read 1 — a neutral
   value, so every workload prints every metric. *)
let simulated_units =
  [ ("speedup_geomean", "x"); ("ddr_mb_geomean", "MB");
    ("makespan_geomean_ms", "ms-simulated"); ("hp_slowdown_geomean", "x") ]

let per_layer_units =
  let passes = [ "mixed"; "skip" ] in
  let per_family stem =
    List.map (fun f -> (stem ^ "." ^ f, "ms")) passes
  in
  [ ("protocol.parse_ms", "ms"); ("serial.decode_ms", "ms");
    ("models.build_ms", "ms"); ("cache_key.digest_ms", "ms");
    ("plan_cache.find_ms", "ms"); ("plan_cache.put_ms", "ms");
    ("engine.handle_ms", "ms"); ("engine.overhead_ms", "ms");
    ("pool.handoff_ms", "ms"); ("metrics.record_ms", "ms");
    ("engine.render_ms", "ms"); ("accel.dse_ms", "ms");
    ("framework.plan_ms", "ms"); ("framework.overhead_ms", "ms");
    ("fusion.apply_ms", "ms"); ("sim.simulate_ms", "ms");
    ("plan_cache.hit_ratio", "ratio"); ("plan_cache.evictions", "count") ]
  @ List.concat_map per_family
      [ "accel.profile_ms"; "core.metric_ms"; "core.prefetch_ms";
        "core.liveness_ms"; "core.interference_ms"; "core.coloring_ms";
        "core.dnnk_ms"; "core.splitting_ms" ]
  @ [ ("core.items", "count"); ("core.vbufs", "count");
      ("core.splitting_iterations", "count");
      ("framework.replan_ms", "ms"); ("runtime.run_ms", "ms");
      ("runtime.overhead_ms", "ms"); ("runtime.search_ms", "ms");
      ("runtime.engine_ms", "ms"); ("runtime.rounds", "count");
      ("runtime.candidates", "count"); ("runtime.transfers", "count");
      ("gc.minor_mb_per_op", "MB"); ("gc.major_per_kop", "count");
      ("fail_ratio", "ratio"); ("trace.coverage", "ratio");
      ("trace.overhead", "ratio") ]

(* --- reference digests --- *)

let read_reference () =
  if not (Sys.file_exists reference_path) then Json.Obj []
  else
    let ic = open_in_bin reference_path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string text with
    | Ok v -> v
    | Error msg -> failwith (reference_path ^ ": " ^ msg)

let reference_digests key =
  match Json.member_opt key (read_reference ()) with
  | Some (Json.List l) ->
    Some
      (Array.of_list
         (List.map
            (function Json.String s -> s | _ -> failwith "bad reference")
            l))
  | _ -> None

let write_reference key digests =
  let fields =
    match read_reference () with Json.Obj f -> f | _ -> []
  in
  let fields =
    List.remove_assoc key fields
    @ [ (key, Json.List (Array.to_list (Array.map (fun d -> Json.String d) digests))) ]
  in
  let doc = Json.Obj (List.sort compare fields) in
  let oc = open_out_bin reference_path in
  output_string oc (Json.to_string ~indent:2 doc ^ "\n");
  close_out oc

(* --- running one workload --- *)

let run_workload ~workload ~seed ~seconds ~trace ~record =
  let reference = if record then None else reference_digests workload in
  let r, digests =
    match workload with
    | "serve-warm" -> Serve.run ~warm:true ~seed ~seconds ~trace ~reference
    | "serve-cold" -> Serve.run ~warm:false ~seed ~seconds ~trace ~reference
    | "plan-scale" -> Plan_scale.run ~seed ~seconds ~trace ~reference
    | "runtime-mix" -> Runtime_mix.run ~seed ~seconds ~trace ~reference
    | w -> failwith ("unknown workload " ^ w)
  in
  (match digests with
  | Some d when record -> write_reference workload d
  | _ -> ());
  r

(* The host-time metrics of one timing, scaled or raw. *)
let host_metrics ~kinds (t : H.timing) =
  let tail = Stats.tail (Array.map snd t.H.samples) in
  ( [ H.metric "setup_s" "s" (Stats.median (Array.of_list t.H.setup));
      H.metric "latency_p50_ms" "ms"
        (1e3 *. Stats.geomean_of_kind_medians ~kinds t.H.samples);
      H.metric "latency_tail_ms" "ms" (1e3 *. tail.Stats.value);
      H.metric "throughput_per_s" "1/s"
        (float_of_int (Array.length t.H.samples) /. t.H.busy) ],
    tail )

let end_to_end (r : H.result) =
  let host, tail = host_metrics ~kinds:(Array.length r.H.kinds) r.H.scaled in
  let base =
    host
    @ [ H.metric "ok_ratio" "ratio" (1. -. Stats.fail_ratio r.H.tally);
        H.metric "heap_peak_mb" "MB" r.H.heap_peak_mb ]
  in
  let simulated =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.H.name = name) r.H.simulated with
        | Some m -> m
        | None -> H.metric name unit_ 1.)
      simulated_units
  in
  (base @ simulated, tail)

let per_layer (r : H.result) =
  List.map
    (fun (name, unit_) ->
      if name = "fail_ratio" then H.metric name unit_ (Stats.fail_ratio r.H.tally)
      else
        match List.find_opt (fun m -> m.H.name = name) r.H.layers with
        | Some m -> m
        | None -> H.metric name unit_ 0.)
    per_layer_units

let result_line ~correct (r : H.result) metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int r.H.tally.Stats.attempted);
         ("failed", Json.Int r.H.tally.Stats.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.H.name,
                    Json.Obj
                      [ ("value", Json.Float m.H.value);
                        ("unit", Json.String m.H.unit_) ] ))
                metrics) ) ])

let main ~workload ~seed ~seconds ~trace ~record =
  (match Selfcheck.run () with
  | [] -> ()
  | failed ->
    List.iter (fun f -> prerr_endline ("self-check failed: " ^ f)) failed;
    exit 2);
  if not (List.mem workload workloads) then begin
    prerr_endline
      ("unknown workload " ^ workload ^ " (known: "
      ^ String.concat ", " workloads ^ ")");
    exit 2
  end;
  if not (Sys.file_exists reference_path) then begin
    prerr_endline
      (reference_path ^ " not found: run from the root of the repository");
    exit 2
  end;
  Speed.start ();
  at_exit Speed.stop;
  let r = run_workload ~workload ~seed ~seconds ~trace ~record in
  let e2e, tail = end_to_end r in
  Printf.printf "workload %s, seed %d, %d operations of %d kinds, %d set-ups\n"
    workload seed (Array.length r.H.scaled.H.samples) (Array.length r.H.kinds)
    (List.length r.H.scaled.H.setup);
  Printf.printf "latency_tail_ms is p%g of %d samples (%d beyond it)\n"
    tail.Stats.percentile tail.Stats.samples tail.Stats.beyond;
  Printf.printf "fail_ratio %g (%d of %d operations failed)\n"
    (Stats.fail_ratio r.H.tally) r.H.tally.Stats.failed
    r.H.tally.Stats.attempted;
  List.iter print_endline r.H.notes;
  let raw, _ = host_metrics ~kinds:(Array.length r.H.kinds) r.H.raw in
  List.iter
    (fun m ->
      Printf.printf "unscaled %-23s %14.6f %s\n" m.H.name m.H.value m.H.unit_)
    raw;
  let metrics = if trace then per_layer r else e2e in
  List.iter
    (fun m -> Printf.printf "%-32s %14.6f %s\n" m.H.name m.H.value m.H.unit_)
    (if trace then e2e @ metrics else metrics);
  let correct = r.H.tally.Stats.failed = 0 in
  print_endline (result_line ~correct r metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and record = ref false in
  let plan_skip = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S target measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced replay");
      ( "--plan-skip",
        Arg.Set_int plan_skip,
        "N plan one skip-family graph of N nodes and exit (see README.md)" );
      ( "--record-reference",
        Arg.Set record,
        " rewrite the workload's reference digests (serve-cold, plan-scale, \
         runtime-mix)" ) ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !plan_skip > 0 then begin
    Plan_scale.plan_skip !plan_skip;
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !seconds < 1 then begin
    prerr_endline "--seconds must be at least 1";
    exit 2
  end;
  match
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~record:!record
  with
  | () -> ()
  | exception e ->
    prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
    exit 2
