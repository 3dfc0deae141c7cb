(* lcmm: command-line front end for the LCMM reproduction.

   Subcommands: models, summary, roofline, allocate, simulate, compare,
   dot, export, info, schedule, trace, traffic, sensitivity, serve.
   Each mirrors one way a user would interrogate the framework;
   bench/main.exe is the separate harness that regenerates the paper's
   tables and figures wholesale. *)

open Cmdliner

(* Every subcommand takes the logging flags: -v/-vv raise the level to
   info/debug (pass-level logs from Framework.plan, request logs from
   the service), -q silences everything. *)
let log_arg =
  let verbose =
    let doc = "Increase log verbosity (repeatable: -v info, -vv debug)." in
    Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)
  in
  let quiet =
    let doc = "Silence all logging." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  let setup verbose quiet =
    let level =
      if quiet then None
      else
        match List.length verbose with
        | 0 -> Some Logs.Warning
        | 1 -> Some Logs.Info
        | _ -> Some Logs.Debug
    in
    Logs.set_level level;
    Logs.set_reporter (Logs.format_reporter ())
  in
  Term.(const setup $ verbose $ quiet)

let model_arg =
  let doc = "Model name (see the models subcommand)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let dtype_arg =
  let parse s =
    match Tensor.Dtype.of_string s with
    | Some d -> Ok d
    | None -> Error (`Msg (Printf.sprintf "unknown precision %S" s))
  in
  let print ppf d = Tensor.Dtype.pp ppf d in
  let dtype_conv = Arg.conv (parse, print) in
  let doc = "Numeric precision: i8, i16 or f32." in
  Arg.(value & opt dtype_conv Tensor.Dtype.I16 & info [ "p"; "precision" ] ~doc)

let device_arg =
  let parse s =
    match Fpga.Device.find s with
    | Some d -> Ok d
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown device %S (known: %s)" s
             (String.concat ", "
                (List.map (fun d -> d.Fpga.Device.device_name) Fpga.Device.all))))
  in
  let print ppf d = Format.pp_print_string ppf d.Fpga.Device.device_name in
  let device_conv = Arg.conv (parse, print) in
  let doc = "Target device: vu9p (default), zu9eg or u250." in
  Arg.(value & opt device_conv Fpga.Device.vu9p & info [ "d"; "device" ] ~doc)

let build_model name =
  match Models.Zoo.find name with
  | Some e -> Ok (e.Models.Zoo.model_name, e.Models.Zoo.build ())
  | None ->
    Error
      (Printf.sprintf "unknown model %S; known: %s" name
         (String.concat ", "
            (List.map (fun e -> e.Models.Zoo.model_name) Models.Zoo.all)))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("lcmm: " ^ msg);
    exit 1

(* Every --json document: indented, newline-terminated. *)
let write_json path doc =
  Lcmm.Report.write_text_file ~path
    (Dnn_serial.Json.to_string ~indent:2 doc ^ "\n")

(* Planner parallelism: --domains N runs the planner fan-outs (liveness,
   DNNK compensation, per-tenant replans) on an N-domain pool.  The
   output is byte-identical to the sequential run, so golden comparisons
   hold at any domain count; 1 (the default) stays fully sequential. *)
let domains_arg =
  let doc =
    "Worker domains for planner parallelism (1 = sequential).  Output is \
     byte-identical at every domain count."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~doc)

let with_pool domains f =
  if domains < 1 then or_die (Error "domains must be >= 1");
  if domains = 1 then f None
  else begin
    let pool = Lcmm.Pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Lcmm.Pool.shutdown pool)
      (fun () -> f (Some pool))
  end

let models_cmd =
  let run () () =
    List.iter
      (fun e ->
        let g = e.Models.Zoo.build () in
        Printf.printf "%-14s %4d nodes %7.2f GMACs %7.1f MB weights (i8)\n"
          e.Models.Zoo.model_name
          (Dnn_graph.Graph.node_count g)
          (float_of_int (Dnn_graph.Graph.total_macs g) /. 1e9)
          (float_of_int (Dnn_graph.Graph.weight_bytes Tensor.Dtype.I8 g) /. 1e6))
      Models.Zoo.all
  in
  Cmd.v (Cmd.info "models" ~doc:"List the model zoo") Term.(const run $ log_arg $ const ())

let summary_cmd =
  let run () name =
    let _, g = or_die (build_model name) in
    Format.printf "%a" Dnn_graph.Graph.pp_summary g
  in
  Cmd.v (Cmd.info "summary" ~doc:"Per-layer graph dump") Term.(const run $ log_arg $ model_arg)

let roofline_cmd =
  let run () name dtype =
    let _, g = or_die (build_model name) in
    let cfg = Accel.Config.make ~style:Accel.Config.Umm dtype in
    let points = Accel.Roofline.points cfg g in
    List.iter (fun p -> Format.printf "%a@." Accel.Roofline.pp_point p) points;
    let mb, total, frac = Accel.Roofline.summary points in
    Format.printf "ridge = %.1f ops/byte; %d / %d layers memory bound (%.0f%%)@."
      (Accel.Roofline.ridge_point cfg) mb total (100. *. frac)
  in
  Cmd.v
    (Cmd.info "roofline" ~doc:"Roofline characterization (paper Fig. 2a)")
    Term.(const run $ log_arg $ model_arg $ dtype_arg)

let allocate_cmd =
  let run () name dtype =
    let model, g = or_die (build_model name) in
    let c = Lcmm.Framework.compare_designs ~model dtype g in
    let p = c.Lcmm.Framework.lcmm_plan in
    Format.printf "design: %a@." Accel.Config.pp p.Lcmm.Framework.config;
    Format.printf "virtual buffers (%d):@."
      (List.length p.Lcmm.Framework.vbufs);
    List.iter
      (fun vb ->
        let on = List.mem vb p.Lcmm.Framework.allocation.Lcmm.Dnnk.chosen in
        Format.printf "  %s %a@." (if on then "[on ]" else "[off]") Lcmm.Vbuffer.pp vb)
      p.Lcmm.Framework.vbufs;
    (match p.Lcmm.Framework.prefetch with
    | None -> ()
    | Some pdg -> Format.printf "prefetch edges:@.%a" Lcmm.Prefetch.pp pdg);
    (let tile_bytes =
       Accel.Tiling.buffer_bytes dtype p.Lcmm.Framework.config.Accel.Config.tile
     in
     match
       Lcmm.Placement.place ~device:Fpga.Device.vu9p ~tile_bytes
         p.Lcmm.Framework.allocation.Lcmm.Dnnk.chosen
     with
     | Ok map -> Format.printf "%a" Lcmm.Placement.pp map
     | Error msg -> Format.printf "placement failed: %s@." msg);
    let helped, bound = Lcmm.Framework.helped_layers p in
    Format.printf
      "UMM %.3f ms -> LCMM %.3f ms (x%.2f); POL %d/%d; tensor SRAM %.2f MB@."
      (c.Lcmm.Framework.umm.Lcmm.Framework.latency_seconds *. 1e3)
      (c.Lcmm.Framework.lcmm.Lcmm.Framework.latency_seconds *. 1e3)
      c.Lcmm.Framework.speedup helped bound
      (float_of_int p.Lcmm.Framework.tensor_sram_bytes /. 1e6)
  in
  Cmd.v
    (Cmd.info "allocate" ~doc:"Run the LCMM framework and print the plan")
    Term.(const run $ log_arg $ model_arg $ dtype_arg)

let plan_cmd =
  let model_opt_arg =
    let doc = "Model name; when omitted, every zoo model is planned." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)
  in
  let profile_arg =
    let doc =
      "Print the per-pass wall-clock breakdown (liveness, interference, \
       coloring, prefetch, DNNK, splitting, segmentation) to stderr.  \
       Timings stay off stdout so the plan text remains byte-reproducible."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let plan_one ?pool ~profile ~fusion ~channels dtype name =
    let model, g = or_die (build_model name) in
    let options = { Lcmm.Framework.default_options with fusion; channels } in
    let c = Lcmm.Framework.compare_designs ~options ?pool ~model dtype g in
    let fz =
      if fusion then Some (Lcmm_fusion.Fusion.apply ?pool c.Lcmm.Framework.lcmm_plan)
      else None
    in
    let p =
      match fz with
      | Some fz -> Lcmm_fusion.Fusion.effective_plan fz
      | None -> c.Lcmm.Framework.lcmm_plan
    in
    Format.printf "== %s ==@." model;
    Format.printf "design: %a@." Accel.Config.pp p.Lcmm.Framework.config;
    Format.printf "virtual buffers (%d):@." (List.length p.Lcmm.Framework.vbufs);
    List.iter
      (fun vb ->
        let on = List.mem vb p.Lcmm.Framework.allocation.Lcmm.Dnnk.chosen in
        Format.printf "  %s %a@." (if on then "[on ]" else "[off]")
          Lcmm.Vbuffer.pp vb)
      p.Lcmm.Framework.vbufs;
    (match p.Lcmm.Framework.prefetch with
    | None -> Format.printf "prefetch edges: none@."
    | Some pdg ->
      Format.printf "prefetch edges: %d@."
        (List.length (Lcmm.Prefetch.edges pdg)));
    Format.printf "UMM %.6f ms -> LCMM %.6f ms (x%.4f); tensor SRAM %d bytes@."
      (c.Lcmm.Framework.umm.Lcmm.Framework.latency_seconds *. 1e3)
      (c.Lcmm.Framework.lcmm.Lcmm.Framework.latency_seconds *. 1e3)
      c.Lcmm.Framework.speedup p.Lcmm.Framework.tensor_sram_bytes;
    (match fz with
    | None -> ()
    | Some fz ->
      let module Fz = Lcmm_fusion.Fusion in
      let module Seg = Lcmm_fusion.Segmentation in
      Format.printf
        "fusion: %d segments (%d nodes fused), %d streamed weights, FIFO %d \
         bytes@."
        (List.length fz.Fz.segments)
        (List.fold_left
           (fun a (s : Seg.segment) -> a + s.Seg.last - s.Seg.first + 1)
           0 fz.Fz.segments)
        (List.length fz.Fz.streamed)
        fz.Fz.fifo_bytes;
      List.iter
        (fun (s : Seg.segment) ->
          Format.printf
            "  segment [%d..%d] slab %d bytes, %.3f us saved, %d DDR bytes@."
            s.Seg.first s.Seg.last s.Seg.slab_bytes
            (s.Seg.benefit_seconds *. 1e6)
            s.Seg.ddr_bytes_saved)
        fz.Fz.segments;
      Format.printf
        "fusion: LCMM+fusion %.6f ms (x%.4f vs UMM); DDR %d -> %d bytes; \
         peak SRAM %d bytes@."
        (fz.Fz.predicted_latency *. 1e3)
        (c.Lcmm.Framework.umm.Lcmm.Framework.latency_seconds
        /. fz.Fz.predicted_latency)
        (Lcmm.Traffic.total_bytes fz.Fz.base_traffic)
        (Lcmm.Traffic.total_bytes fz.Fz.traffic)
        fz.Fz.peak_sram_bytes);
    (match p.Lcmm.Framework.channel_assignment with
    | None -> ()
    | Some a ->
      Format.printf "channels: %d | bytes %s | balance %.3f@."
        a.Lcmm.Channels.channels
        (String.concat " / "
           (Array.to_list
              (Array.map
                 (fun b -> Printf.sprintf "%.2f MB" (b /. 1e6))
                 a.Lcmm.Channels.channel_bytes)))
        (Lcmm.Channels.balance a));
    if profile then begin
      Printf.eprintf "%s pass times:\n" model;
      let assoc =
        Lcmm.Framework.pass_times_assoc p.Lcmm.Framework.pass_times
      in
      List.iter (fun (k, v) -> Printf.eprintf "  %-16s %10.0f us\n" k v) assoc;
      Printf.eprintf "  %-16s %10.0f us\n" "total"
        (List.fold_left (fun acc (_, v) -> acc +. v) 0. assoc)
    end
  in
  let fusion_arg =
    let doc =
      "Run the fused-layer segmentation and weight-streaming post-pass; \
       adds fusion summary lines to the output.  Off by default, and the \
       default output is byte-identical to a build without the pass."
    in
    Arg.(value & flag & info [ "fusion" ] ~doc)
  in
  let channels_arg =
    let doc =
      "Add a DDR channel-assignment pass mapping every stream onto this \
       many channels; a summary line joins the plan output.  1 (the \
       default) skips the pass and keeps the output byte-identical."
    in
    Arg.(value & opt int 1 & info [ "channels" ] ~docv:"N" ~doc)
  in
  let run () name dtype profile fusion channels domains =
    if channels < 1 then or_die (Error "channels must be >= 1");
    with_pool domains (fun pool ->
        match name with
        | Some name -> plan_one ?pool ~profile ~fusion ~channels dtype name
        | None ->
          List.iter
            (fun e ->
              plan_one ?pool ~profile ~fusion ~channels dtype
                e.Models.Zoo.model_name)
            Models.Zoo.all)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Deterministic plan summary for one model (or the whole zoo), \
          suitable for golden-file comparison; --profile adds a per-pass \
          timing breakdown on stderr, --fusion runs the fused-layer / \
          weight-streaming post-pass, and --domains N plans on N worker \
          domains without changing a byte of the output.")
    Term.(
      const run $ log_arg $ model_opt_arg $ dtype_arg $ profile_arg
      $ fusion_arg $ channels_arg $ domains_arg)

let simulate_cmd =
  let run () name dtype =
    let model, g = or_die (build_model name) in
    let c = Lcmm.Framework.compare_designs ~model dtype g in
    let p = c.Lcmm.Framework.lcmm_plan in
    let m = p.Lcmm.Framework.metric in
    let umm = Sim.Engine.simulate_umm m in
    let lcmm =
      Sim.Engine.simulate ?prefetch:p.Lcmm.Framework.prefetch m
        ~on_chip:p.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip
    in
    Format.printf "simulated UMM %.3f ms, LCMM %.3f ms (x%.2f), prefetch wait %.3f ms@."
      (umm.Sim.Engine.total *. 1e3) (lcmm.Sim.Engine.total *. 1e3)
      (umm.Sim.Engine.total /. lcmm.Sim.Engine.total)
      (lcmm.Sim.Engine.prefetch_wait *. 1e3);
    let rows = Sim.Report.per_block g lcmm in
    if rows <> [] then Format.printf "%a" Sim.Report.pp_rows rows
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Discrete-event simulation of UMM vs LCMM")
    Term.(const run $ log_arg $ model_arg $ dtype_arg)

let compare_cmd =
  let run () name dtype device =
    let model, g = or_die (build_model name) in
    let c = Lcmm.Framework.compare_designs ~device ~model dtype g in
    let pr (r : Lcmm.Framework.design_report) =
      Format.printf
        "%-5s %8.3f ms %6.3f Tops %3.0f MHz dsp %3.0f%% clb %3.0f%% sram %3.0f%%@."
        r.Lcmm.Framework.style_name
        (r.Lcmm.Framework.latency_seconds *. 1e3)
        r.Lcmm.Framework.tops r.Lcmm.Framework.freq_mhz
        (100. *. r.Lcmm.Framework.dsp_util)
        (100. *. r.Lcmm.Framework.clb_util)
        (100. *. r.Lcmm.Framework.sram_util)
    in
    pr c.Lcmm.Framework.umm;
    pr c.Lcmm.Framework.lcmm;
    Format.printf "speedup x%.2f@." c.Lcmm.Framework.speedup
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"One row of the paper's Table 1")
    Term.(const run $ log_arg $ model_arg $ dtype_arg $ device_arg)

let export_cmd =
  let out_arg =
    Arg.(value & opt string "model.json" & info [ "o"; "output" ] ~doc:"Output path.")
  in
  let run () name path =
    let _, g = or_die (build_model name) in
    Dnn_serial.Codec.write_file ~path g;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "export" ~doc:"Serialize a model graph to JSON")
    Term.(const run $ log_arg $ model_arg $ out_arg)

let info_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Graph JSON file.")
  in
  let run () path =
    match Dnn_serial.Codec.read_file ~path with
    | Error msg -> or_die (Error msg)
    | Ok g ->
      Printf.printf "%s: %d nodes, %.2f GMACs, %.1f MB weights (i8)\n" path
        (Dnn_graph.Graph.node_count g)
        (float_of_int (Dnn_graph.Graph.total_macs g) /. 1e9)
        (float_of_int (Dnn_graph.Graph.weight_bytes Tensor.Dtype.I8 g) /. 1e6)
  in
  Cmd.v (Cmd.info "info" ~doc:"Summarize a serialized graph")
    Term.(const run $ log_arg $ file_arg)

let schedule_cmd =
  let run () name dtype =
    let _, g = or_die (build_model name) in
    let base = Dnn_graph.Schedule.peak_live_bytes dtype g (Dnn_graph.Schedule.default g) in
    let order = Dnn_graph.Schedule.memory_aware dtype g in
    let tuned = Dnn_graph.Schedule.peak_live_bytes dtype g order in
    Printf.printf
      "peak live feature bytes: builder order %.2f MB, memory-aware %.2f MB (%.0f%%)\n"
      (float_of_int base /. 1e6)
      (float_of_int tuned /. 1e6)
      (100. *. float_of_int tuned /. float_of_int base)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Memory-aware schedule comparison")
    Term.(const run $ log_arg $ model_arg $ dtype_arg)

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~doc:"Output path.")
  in
  let run () name dtype path =
    let model, g = or_die (build_model name) in
    let c = Lcmm.Framework.compare_designs ~model dtype g in
    let p = c.Lcmm.Framework.lcmm_plan in
    let run_result =
      Sim.Engine.simulate ?prefetch:p.Lcmm.Framework.prefetch
        p.Lcmm.Framework.metric
        ~on_chip:p.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip
    in
    Sim.Trace.write_file ~path g run_result;
    Printf.printf "wrote %s (open in a Chrome-tracing viewer)\n" path
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Export a Chrome-tracing timeline of the LCMM run")
    Term.(const run $ log_arg $ model_arg $ dtype_arg $ out_arg)

let traffic_cmd =
  let run () name dtype =
    let model, g = or_die (build_model name) in
    let c = Lcmm.Framework.compare_designs ~model dtype g in
    let m = c.Lcmm.Framework.lcmm_plan.Lcmm.Framework.metric in
    let on_chip =
      c.Lcmm.Framework.lcmm_plan.Lcmm.Framework.allocation.Lcmm.Dnnk.on_chip
    in
    let show tag t =
      Printf.printf "%-5s if %8.1f MB  wt %8.1f MB  of %8.1f MB  total %8.1f MB\n"
        tag
        (float_of_int t.Lcmm.Traffic.if_bytes /. 1e6)
        (float_of_int t.Lcmm.Traffic.wt_bytes /. 1e6)
        (float_of_int t.Lcmm.Traffic.of_bytes /. 1e6)
        (float_of_int (Lcmm.Traffic.total_bytes t) /. 1e6)
    in
    show "UMM" (Lcmm.Traffic.umm m);
    show "LCMM" (Lcmm.Traffic.of_allocation m ~on_chip);
    let e = Lcmm.Traffic.energy_of_allocation m ~dtype ~on_chip in
    Printf.printf
      "LCMM energy/inference: %.3f mJ (ddr %.3f, sram %.3f, compute %.3f)\n"
      (Lcmm.Traffic.total_joules e *. 1e3)
      (e.Lcmm.Traffic.ddr_joules *. 1e3)
      (e.Lcmm.Traffic.sram_joules *. 1e3)
      (e.Lcmm.Traffic.compute_joules *. 1e3)
  in
  Cmd.v
    (Cmd.info "traffic" ~doc:"Per-inference DDR traffic and energy")
    Term.(const run $ log_arg $ model_arg $ dtype_arg)

let sensitivity_cmd =
  let run () name dtype =
    let _, g = or_die (build_model name) in
    Format.printf "%a@." (fun ppf () ->
        Lcmm.Sensitivity.pp_points ppf "ddr-eff"
          (Lcmm.Sensitivity.ddr_efficiency_sweep dtype g)) ();
    Format.printf "%a@." (fun ppf () ->
        Lcmm.Sensitivity.pp_points ppf "burst-ovh"
          (Lcmm.Sensitivity.burst_overhead_sweep dtype g)) ()
  in
  Cmd.v
    (Cmd.info "sensitivity" ~doc:"Calibration sensitivity sweeps")
    Term.(const run $ log_arg $ model_arg $ dtype_arg)

let dot_cmd =
  let out_arg =
    Arg.(value & opt string "model.dot" & info [ "o"; "output" ] ~doc:"Output path.")
  in
  let run () name path =
    let _, g = or_die (build_model name) in
    Dnn_graph.Dot.write_file ~path g;
    Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export the graph as Graphviz")
    Term.(const run $ log_arg $ model_arg $ out_arg)

let runtime_cmd =
  let tenants_arg =
    let doc =
      "Tenant mix as a comma list of MODEL[:COUNT[:PRIORITY]] entries, e.g. \
       alexnet:2,vgg:1.  COUNT replicas of MODEL join the board (default 1) \
       at PRIORITY (lower = more important, default 0)."
    in
    Arg.(
      required
      & opt (some string) None
      & info [ "t"; "tenants" ] ~docv:"MIX" ~doc)
  in
  let policy_conv ~what ~known of_string to_string =
    let parse s =
      match of_string s with
      | Some p -> Ok p
      | None ->
        Error (`Msg (Printf.sprintf "unknown %s %S (known: %s)" what s known))
    in
    Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (to_string p))
  in
  let arbitration_arg =
    let cv =
      policy_conv ~what:"arbitration" ~known:"fair, priority"
        Lcmm_runtime.Arbiter.of_string Lcmm_runtime.Arbiter.to_string
    in
    Arg.(
      value
      & opt cv Lcmm_runtime.Arbiter.Fair_share
      & info [ "arbitration" ] ~doc:"Bus arbitration: fair or priority.")
  in
  let scheduler_arg =
    let cv =
      policy_conv ~what:"scheduler" ~known:"greedy, edf, optimized"
        Lcmm_runtime.Scheduler.of_string Lcmm_runtime.Scheduler.to_string
    in
    Arg.(
      value
      & opt cv Lcmm_runtime.Scheduler.Edf
      & info
          [ "scheduler"; "schedule" ]
          ~doc:"Transfer scheduler: greedy (all released transfers share the \
                bus), edf (earliest prefetch deadline first), or optimized \
                (searched transfer orders over per-channel timelines with \
                plan/schedule co-iteration; never worse than greedy or edf).")
  in
  let channels_arg =
    Arg.(
      value & opt int 1
      & info [ "channels" ]
          ~doc:"DDR channels to schedule over (>= 1).  1 is the aggregate \
                fluid-bus model; 0 means the device's DDR bank count.")
  in
  let schedule_rounds_arg =
    Arg.(
      value & opt int 3
      & info [ "schedule-rounds" ]
          ~doc:"Plan/schedule co-iteration bound for the optimized \
                scheduler.")
  in
  let partition_arg =
    let cv =
      policy_conv ~what:"partition policy" ~known:"equal, demand"
        Lcmm_runtime.Partition.of_string Lcmm_runtime.Partition.to_string
    in
    Arg.(
      value
      & opt cv Lcmm_runtime.Partition.Equal
      & info [ "partition" ] ~doc:"SRAM partition policy: equal or demand.")
  in
  let overcommit_arg =
    Arg.(
      value & opt float 4.0
      & info [ "overcommit" ]
          ~doc:"Admission bandwidth over-subscription factor (> 0).")
  in
  let stagger_arg =
    Arg.(
      value & opt float 0.
      & info [ "stagger-ms" ]
          ~doc:"Arrival stagger: tenant $(i) arrives at $(i) times this many \
                milliseconds.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ]
          ~doc:"Add deterministic pseudo-random arrival jitter from this seed.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write the report as JSON.")
  in
  let faults_arg =
    let cv =
      let parse s =
        match Fault.Spec.of_string s with
        | Ok spec -> Ok spec
        | Error msg -> Error (`Msg msg)
      in
      Arg.conv
        (parse, fun ppf s -> Format.pp_print_string ppf (Fault.Spec.to_string s))
    in
    Arg.(
      value
      & opt (some cv) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Seeded fault injection, e.g. \
             $(b,seed=42,droop\\@2:3:0.5,stall:0.05:0.2,fail:0.02,bankloss\\@4:256k). \
             Clauses: $(b,seed=N), $(b,droop\\@T:DUR:FACTOR) (DDR bandwidth \
             droop window, ms), $(b,stall:PROB:MS) (transient transfer \
             stalls), $(b,fail:PROB) (transfer failures, retried with capped \
             exponential backoff), $(b,retries=N), $(b,backoff=BASE:CAP) \
             (ms), $(b,bankloss\\@T:BYTES[:TENANT]) (SRAM bank loss, \
             triggering degraded-mode replanning), $(b,abort\\@T:TENANT).  A \
             spec with no active fault source reproduces the fault-free run \
             bit for bit.")
  in
  let parse_mix s =
    let entry item =
      match String.split_on_char ':' item with
      | [ name ] -> Ok (name, 1, 0)
      | [ name; count ] -> (
        match int_of_string_opt count with
        | Some c when c >= 1 -> Ok (name, c, 0)
        | _ -> Error (Printf.sprintf "bad count in %S" item))
      | [ name; count; prio ] -> (
        match (int_of_string_opt count, int_of_string_opt prio) with
        | Some c, Some p when c >= 1 -> Ok (name, c, p)
        | _ -> Error (Printf.sprintf "bad count or priority in %S" item))
      | _ -> Error (Printf.sprintf "bad tenant entry %S" item)
    in
    let items =
      List.filter (fun x -> x <> "") (String.split_on_char ',' s)
    in
    if items = [] then Error "empty tenant mix"
    else
      List.fold_left
        (fun acc item ->
          Result.bind acc (fun acc ->
              Result.map (fun e -> e :: acc) (entry item)))
        (Ok []) items
      |> Result.map List.rev
  in
  let fusion_arg =
    let doc =
      "Plan every tenant with the fused-layer segmentation and \
       weight-streaming post-pass."
    in
    Arg.(value & flag & info [ "fusion" ] ~doc)
  in
  let run () mix dtype device arbitration scheduler channels schedule_rounds
      partition overcommit stagger_ms seed json_path faults fusion domains =
    if overcommit <= 0. then or_die (Error "overcommit must be positive");
    if stagger_ms < 0. then or_die (Error "stagger-ms must be non-negative");
    if channels < 0 then or_die (Error "channels must be >= 0");
    if schedule_rounds < 1 then
      or_die (Error "schedule-rounds must be >= 1");
    let channels =
      if channels = 0 then Fpga.Device.ddr_channels device else channels
    in
    let entries = or_die (parse_mix mix) in
    let rng = Option.map (fun s -> Random.State.make [| s |]) seed in
    let counter = Hashtbl.create 8 in
    let position = ref 0 in
    let specs =
      List.concat_map
        (fun (name, count, priority) ->
          let model, graph = or_die (build_model name) in
          List.init count (fun _ ->
              let k =
                Option.value ~default:0 (Hashtbl.find_opt counter model)
              in
              Hashtbl.replace counter model (k + 1);
              let jitter =
                match rng with
                | None -> 0.
                | Some st -> Random.State.float st 5e-4
              in
              let arrival =
                (float_of_int !position *. stagger_ms /. 1e3) +. jitter
              in
              incr position;
              { Lcmm_runtime.Runtime.name = Printf.sprintf "%s#%d" model k;
                model;
                graph;
                priority;
                arrival }))
        entries
    in
    let options =
      { Lcmm_runtime.Runtime.default_options with
        dtype; device; arbitration; scheduler; channels; schedule_rounds;
        partition; overcommit; faults;
        fw_options = { Lcmm.Framework.default_options with fusion } }
    in
    let report =
      with_pool domains (fun pool ->
          Lcmm_runtime.Runtime.run ?pool options specs)
    in
    Format.printf "%a" Lcmm_runtime.Report.pp report;
    match json_path with
    | None -> ()
    | Some path ->
      write_json path (Lcmm_runtime.Report.to_json report);
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "runtime"
       ~doc:
         "Multi-tenant board runtime: partition the device SRAM across \
          several models, re-run LCMM per tenant under its share, and \
          co-simulate them with all weight transfers contending for the \
          shared DDR bus under the chosen arbitration and transfer \
          scheduler.")
    Term.(
      const run $ log_arg $ tenants_arg $ dtype_arg $ device_arg
      $ arbitration_arg $ scheduler_arg $ channels_arg $ schedule_rounds_arg
      $ partition_arg $ overcommit_arg $ stagger_arg $ seed_arg $ json_arg
      $ faults_arg $ fusion_arg $ domains_arg)

let serve_cmd =
  let socket_arg =
    let doc =
      "Listen on a Unix domain socket at $(docv) instead of stdin/stdout."
    in
    Arg.(value & opt (some string) None & info [ "s"; "socket" ] ~docv:"PATH" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains compiling plans in parallel." in
    Arg.(value & opt int 2 & info [ "w"; "workers" ] ~doc)
  in
  let cache_entries_arg =
    let doc = "Maximum plan-cache entries before LRU eviction." in
    Arg.(value & opt int 256 & info [ "cache-entries" ] ~doc)
  in
  let cache_mb_arg =
    let doc = "Maximum plan-cache payload megabytes before LRU eviction." in
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Persist cached plans to $(docv) as JSON and rewarm from it on restart."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_timing_arg =
    let doc =
      "Canonical responses: omit the cache and elapsed_ms fields, making each \
       response a pure function of its request (reproducible transcripts)."
    in
    Arg.(value & flag & info [ "no-timing" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-request compute budget in milliseconds; a request that \
       runs past it answers with a structured deadline error instead of \
       stalling its connection.  Requests may override with their own \
       deadline_ms field."
    in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let run () socket workers cache_entries cache_mb cache_dir no_timing
      deadline_ms =
    if workers < 1 then or_die (Error "workers must be >= 1");
    if cache_entries < 1 then or_die (Error "cache-entries must be >= 1");
    if cache_mb < 1 then or_die (Error "cache-mb must be >= 1");
    (match deadline_ms with
    | Some ms when ms <= 0. -> or_die (Error "deadline-ms must be positive")
    | _ -> ());
    let cache =
      Lcmm_service.Plan_cache.create ~max_entries:cache_entries
        ~max_bytes:(cache_mb * 1024 * 1024) ?persist_dir:cache_dir ()
    in
    let pool = Lcmm.Pool.create ~domains:workers () in
    let engine = Lcmm_service.Engine.create ~cache ~pool ?deadline_ms () in
    let timing = not no_timing in
    Fun.protect
      ~finally:(fun () -> Lcmm_service.Engine.shutdown engine)
      (fun () ->
        match socket with
        | Some path -> Lcmm_service.Server.serve_unix_socket ~timing engine ~path
        | None -> Lcmm_service.Server.serve_stdio ~timing engine)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the plan-compilation service: newline-delimited JSON requests \
          (compile, simulate, run, batch, stats, models) from stdin or a \
          Unix socket, answered from a content-addressed plan cache backed \
          by a multi-domain worker pool.")
    Term.(
      const run $ log_arg $ socket_arg $ workers_arg $ cache_entries_arg
      $ cache_mb_arg $ cache_dir_arg $ no_timing_arg $ deadline_arg)

let check_cmd =
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed of the run.")
  in
  let count_arg =
    Arg.(value & opt int 100 & info [ "n"; "count" ] ~doc:"Number of random graphs.")
  in
  let max_nodes_arg =
    Arg.(
      value
      & opt int Check.Runner.default_max_nodes
      & info [ "max-nodes" ] ~doc:"Largest generated graph.")
  in
  let oracle_arg =
    let doc =
      Printf.sprintf "Run only this oracle (repeatable).  Known: %s."
        (String.concat ", " Check.Oracle.names)
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let replay_arg =
    let doc = "Re-run the oracles on a persisted failure case instead of fuzzing." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let save_dir_arg =
    let doc = "Directory where shrunk failing cases are persisted as JSON." in
    Arg.(value & opt string "." & info [ "save-dir" ] ~docv:"DIR" ~doc)
  in
  let run () seed count max_nodes oracle_names replay save_dir =
    let oracles =
      match oracle_names with
      | [] -> Check.Oracle.all
      | names ->
        List.map
          (fun name ->
            match Check.Oracle.find name with
            | Some o -> o
            | None ->
              or_die
                (Error
                   (Printf.sprintf "unknown oracle %S; known: %s" name
                      (String.concat ", " Check.Oracle.names))))
          names
    in
    let report (outcome : Check.Runner.outcome) =
      List.iter
        (fun (f : Check.Runner.failure) ->
          Printf.printf
            "FAIL case %d (%s): oracle %s\n  %s\n  counterexample: %d nodes (from %d)%s\n"
            f.Check.Runner.case_index f.Check.Runner.family f.Check.Runner.oracle
            f.Check.Runner.message f.Check.Runner.shrunk_nodes
            f.Check.Runner.original_nodes
            (match f.Check.Runner.saved_path with
            | Some p -> Printf.sprintf "\n  saved: %s" p
            | None -> ""))
        outcome.Check.Runner.failures;
      Printf.printf "checked %d case(s), %d oracle run(s): %s\n"
        outcome.Check.Runner.cases outcome.Check.Runner.oracle_runs
        (match outcome.Check.Runner.failures with
        | [] -> "all invariants held"
        | fs -> Printf.sprintf "%d FAILURE(S)" (List.length fs));
      if outcome.Check.Runner.failures <> [] then exit 1
    in
    match replay with
    | Some path -> report (or_die (Check.Runner.replay ~oracles ~path ()))
    | None ->
      if count < 1 then or_die (Error "count must be >= 1");
      if max_nodes < 1 then or_die (Error "max-nodes must be >= 1");
      report
        (Check.Runner.run ~oracles ~save_dir ~max_nodes ~seed ~count ())
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Property-based differential verification: fuzz the LCMM passes with \
          random adversarial graphs, checking every pass against its invariants, \
          the exact solver and the simulator; failures are shrunk and persisted \
          as replayable JSON.")
    Term.(
      const run $ log_arg $ seed_arg $ count_arg $ max_nodes_arg $ oracle_arg
      $ replay_arg $ save_dir_arg)

(* --- sharded tier --- *)

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
   socket file). *)
let spawn_tier ~shards ~workers ~vnodes ~max_inflight ~cache_entries
    ~cache_mb ~cache_dir ~deadline_ms ~router_cache_entries ~router_cache_mb
    ~timing ?retries ?retry_backoff_ms ?hedge_ms ?hedge_quantile
    ?call_timeout_ms ?probe_interval_ms ?chaos ?breaker_threshold ~socket_dir
    () =
  if shards < 1 then or_die (Error "shards must be >= 1");
  if workers < 1 then or_die (Error "workers must be >= 1");
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
  let shard_list = List.init shards shard_of in
  let ring =
    Lcmm_tier.Ring.create ~vnodes (List.map Lcmm_tier.Shard.name shard_list)
  in
  let tier =
    Lcmm_tier.Tier.create ~router_cache_entries ~router_cache_mb ?deadline_ms
      ~timing ?retries ?retry_backoff_ms ?hedge_ms ?hedge_quantile
      ?call_timeout_ms ?probe_interval_ms ?chaos ~ring ~shards:shard_list ()
  in
  (tier, cleanup)

(* The --chaos / --faults spec syntax shared by the tier and the chaos
   bench; a malformed spec is a CLI error (cmdliner exits 124) carrying
   the parser's clause-and-position diagnosis. *)
let fault_spec_conv =
  let parse s =
    match Fault.Spec.of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf (Fault.Spec.to_string s))

let chaos_arg =
  let doc =
    "Seeded transport-fault injection on the router->shard path, e.g. \
     $(b,seed=42,delay:0.1:40,hang:0.02,trunc:0.02,corrupt:0.02,reset:0.05,slowshard\\@0:3).  \
     A spec with no transport clauses (or no --chaos at all) leaves the \
     tier's output byte-identical to a fault-free run."
  in
  Arg.(value & opt (some fault_spec_conv) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

let retries_arg =
  let doc =
    "Extra compute attempts per candidate shard after a transport failure \
     or an invalid reply (0 disables retries)."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~doc)

let retry_backoff_arg =
  let doc =
    "Base backoff in milliseconds before a retry; doubles per attempt, \
     capped at 8x and at the request's remaining deadline."
  in
  Arg.(value & opt float 25. & info [ "retry-backoff-ms" ] ~doc)

let hedge_ms_arg =
  let doc =
    "Hedge a compute call against the next shard in ring order once the \
     primary has been quiet for $(docv) milliseconds."
  in
  Arg.(value & opt (some float) None & info [ "hedge-ms" ] ~docv:"MS" ~doc)

let hedge_quantile_arg =
  let doc =
    "Adaptive hedging: hedge once the primary exceeds this quantile (in \
     (0,1), e.g. 0.95) of observed compute-call latency."
  in
  Arg.(value & opt (some float) None & info [ "hedge-quantile" ] ~docv:"Q" ~doc)

let call_timeout_arg =
  let doc =
    "Per-call reply timeout in milliseconds on every shard connection; a \
     hung shard surfaces as a transport failure instead of wedging the \
     router."
  in
  Arg.(value & opt (some float) None & info [ "call-timeout-ms" ] ~docv:"MS" ~doc)

let probe_interval_arg =
  let doc =
    "Background health-probe interval in milliseconds: every non-up shard \
     gets a stats roundtrip that can close its breaker without waiting for \
     live traffic."
  in
  Arg.(
    value & opt (some float) None & info [ "probe-interval-ms" ] ~docv:"MS" ~doc)

let shards_arg =
  let doc = "Number of backend shard processes." in
  Arg.(value & opt int 2 & info [ "shards" ] ~doc)

let tier_workers_arg =
  let doc = "Worker domains per shard." in
  Arg.(value & opt int 2 & info [ "w"; "workers" ] ~doc)

let vnodes_arg =
  let doc = "Virtual nodes per shard on the hash ring." in
  Arg.(value & opt int 64 & info [ "vnodes" ] ~doc)

let max_inflight_arg =
  let doc =
    "Per-shard in-flight request bound; beyond it requests are shed with a \
     structured overloaded error."
  in
  Arg.(value & opt int 64 & info [ "max-inflight" ] ~doc)

let tier_cmd =
  let socket_arg =
    let doc =
      "Serve the tier's front on a Unix domain socket at $(docv) instead of \
       stdin/stdout."
    in
    Arg.(value & opt (some string) None & info [ "s"; "socket" ] ~docv:"PATH" ~doc)
  in
  let cache_entries_arg =
    let doc = "Maximum plan-cache entries per shard." in
    Arg.(value & opt int 256 & info [ "cache-entries" ] ~doc)
  in
  let cache_mb_arg =
    let doc = "Maximum plan-cache payload megabytes per shard." in
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~doc)
  in
  let cache_dir_arg =
    let doc =
      "Root of the shards' disk caches: shard $(i)i gets $(docv)/shard-$(i)i."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let router_cache_entries_arg =
    let doc = "Maximum router front-cache entries." in
    Arg.(value & opt int 512 & info [ "router-cache-entries" ] ~doc)
  in
  let router_cache_mb_arg =
    let doc = "Maximum router front-cache megabytes." in
    Arg.(value & opt int 64 & info [ "router-cache-mb" ] ~doc)
  in
  let no_timing_arg =
    let doc =
      "Canonical responses: omit the cache and elapsed_ms fields (byte-exact \
       with a single-process serve answering the same requests)."
    in
    Arg.(value & flag & info [ "no-timing" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Default per-request compute budget in milliseconds, injected into \
       forwarded requests that carry none of their own."
    in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let socket_dir_arg =
    let doc = "Directory for the shard sockets (default: a fresh temp dir)." in
    Arg.(value & opt (some string) None & info [ "socket-dir" ] ~docv:"DIR" ~doc)
  in
  let run () shards workers vnodes max_inflight socket cache_entries cache_mb
      cache_dir router_cache_entries router_cache_mb no_timing deadline_ms
      socket_dir chaos_spec retries retry_backoff_ms hedge_ms hedge_quantile
      call_timeout_ms probe_interval_ms drain_timeout_s =
    if cache_entries < 1 then or_die (Error "cache-entries must be >= 1");
    if cache_mb < 1 then or_die (Error "cache-mb must be >= 1");
    (match deadline_ms with
    | Some ms when ms <= 0. -> or_die (Error "deadline-ms must be positive")
    | _ -> ());
    if retries < 0 then or_die (Error "retries must be >= 0");
    if drain_timeout_s <= 0. then
      or_die (Error "drain-timeout-s must be positive");
    let socket_dir =
      match socket_dir with
      | Some dir ->
        (try Unix.mkdir dir 0o700
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        dir
      | None -> tier_socket_dir ()
    in
    let chaos = Option.bind chaos_spec Lcmm_tier.Chaos.create in
    (match (chaos_spec, chaos) with
    | Some spec, None ->
      Printf.eprintf
        "lcmm tier: --chaos %S has no transport clauses; running fault-free\n%!"
        (Fault.Spec.to_string spec)
    | _ -> ());
    let tier, cleanup =
      spawn_tier ~shards ~workers ~vnodes ~max_inflight ~cache_entries
        ~cache_mb ~cache_dir ~deadline_ms ~router_cache_entries
        ~router_cache_mb ~timing:(not no_timing) ~retries ~retry_backoff_ms
        ?hedge_ms ?hedge_quantile ?call_timeout_ms ?probe_interval_ms ?chaos
        ~socket_dir ()
    in
    (* The shard processes and socket files must die with the tier —
       on EOF, on an uncaught error, and on SIGTERM/SIGINT (exit runs
       the at_exit cleanup). *)
    at_exit cleanup;
    (* SIGTERM is the graceful path: stop admitting, let in-flight
       requests finish rendering, push the router cache back to the
       owning shards, then exit 0 (which runs the at_exit cleanup, so
       no shard process or socket file survives).  SIGINT stays the
       abrupt path.  The handler only flips a latch and hands the work
       to a thread — drain waits on in-flight requests, which a signal
       handler must never block on. *)
    let drain_started = Atomic.make false in
    let on_sigterm =
      Sys.Signal_handle
        (fun _ ->
          if not (Atomic.exchange drain_started true) then
            ignore
              (Thread.create
                 (fun () ->
                   let flushed =
                     Lcmm_tier.Tier.drain ~timeout_s:drain_timeout_s tier
                   in
                   Printf.eprintf
                     "lcmm tier: drained, %d cache entries flushed\n%!"
                     flushed;
                   (* Give the server loop a beat to write the response
                      of the request that just left the in-flight gate. *)
                   Thread.delay 0.1;
                   exit 0)
                 ()))
    in
    (try Sys.set_signal Sys.sigterm on_sigterm
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130))
     with Invalid_argument _ | Sys_error _ -> ());
    (* A client closing our stdout mid-stream (`lcmm tier | head`) must
       surface as a write error, not a process-killing SIGPIPE — dying
       on the signal would skip cleanup and orphan every shard. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    let handler = Lcmm_tier.Tier.handle_line tier in
    Fun.protect ~finally:cleanup (fun () ->
        try
          match socket with
          | Some path ->
            Lcmm_service.Server.serve_unix_socket_with handler ~path
          | None ->
            Lcmm_service.Server.serve_channels_with handler stdin stdout
        with Sys_error _ ->
          (* Broken stdout is the client hanging up: a clean shutdown. *)
          ())
  in
  let drain_timeout_arg =
    let doc =
      "Seconds the SIGTERM drain waits for in-flight requests before \
       flushing the cache and exiting anyway."
    in
    Arg.(value & opt float 10. & info [ "drain-timeout-s" ] ~doc)
  in
  Cmd.v
    (Cmd.info "tier"
       ~doc:
         "Run the sharded plan-compilation tier: a consistent-hash router \
          over N supervised serve processes, with a router-side LRU, \
          shard-local disk caches, peer cache fill between shards, per-shard \
          circuit breakers, overload shedding, retries, hedging, deadline \
          propagation, health probes, graceful SIGTERM drain and seeded \
          chaos injection.")
    Term.(
      const run $ log_arg $ shards_arg $ tier_workers_arg $ vnodes_arg
      $ max_inflight_arg $ socket_arg $ cache_entries_arg $ cache_mb_arg
      $ cache_dir_arg $ router_cache_entries_arg $ router_cache_mb_arg
      $ no_timing_arg $ deadline_arg $ socket_dir_arg $ chaos_arg
      $ retries_arg $ retry_backoff_arg $ hedge_ms_arg $ hedge_quantile_arg
      $ call_timeout_arg $ probe_interval_arg $ drain_timeout_arg)

let bench_serve_cmd =
  let shard_counts_arg =
    let doc = "Comma-separated shard counts to bench (e.g. 1,2,4)." in
    Arg.(value & opt string "1,2,4" & info [ "shard-counts" ] ~doc)
  in
  let rps_arg =
    let doc = "Offered request rate of the measured run." in
    Arg.(value & opt float 200. & info [ "rps" ] ~doc)
  in
  let duration_arg =
    let doc = "Seconds per load step." in
    Arg.(value & opt float 2. & info [ "duration" ] ~doc)
  in
  let slo_arg =
    let doc = "p99 latency SLO in milliseconds (gates slo_pass)." in
    Arg.(value & opt float 250. & info [ "slo-p99-ms" ] ~doc)
  in
  let threads_arg =
    let doc = "Load-generator sender threads." in
    Arg.(value & opt int 8 & info [ "threads" ] ~doc)
  in
  let sat_steps_arg =
    let doc = "Maximum rate doublings in the saturation search." in
    Arg.(value & opt int 4 & info [ "sat-steps" ] ~doc)
  in
  let mix_models_arg =
    let doc = "Zoo models in the request mix (smallest first)." in
    Arg.(value & opt int 4 & info [ "mix-models" ] ~doc)
  in
  let json_arg =
    let doc = "Write the report to $(docv)." in
    Arg.(value & opt string "BENCH_serve.json" & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run () shard_counts workers rps duration slo_p99_ms threads sat_steps
      mix_models json_path =
    let counts =
      String.split_on_char ',' shard_counts
      |> List.filter_map (fun s ->
             let s = String.trim s in
             if s = "" then None else Some s)
      |> List.map (fun s ->
             match int_of_string_opt s with
             | Some n when n >= 1 -> n
             | _ -> or_die (Error (Printf.sprintf "bad shard count %S" s)))
    in
    if counts = [] then or_die (Error "no shard counts given");
    if rps <= 0. then or_die (Error "rps must be positive");
    if duration <= 0. then or_die (Error "duration must be positive");
    let mix = Lcmm_tier.Loadgen.zoo_mix ~models:mix_models () in
    let bench_tier n =
      Printf.eprintf "bench serve: %d shard(s)...\n%!" n;
      let socket_dir = tier_socket_dir () in
      let tier, cleanup =
        spawn_tier ~shards:n ~workers ~vnodes:64 ~max_inflight:64
          ~cache_entries:256 ~cache_mb:64 ~cache_dir:None ~deadline_ms:None
          ~router_cache_entries:512 ~router_cache_mb:64 ~timing:false
          ~socket_dir ()
      in
      Fun.protect ~finally:cleanup (fun () ->
          let handler = Lcmm_tier.Tier.handle_line tier in
          (* Warm every plan once so the measured run exercises the
             serving path, not first-compile cost. *)
          List.iter (fun line -> ignore (handler line)) mix;
          let measured =
            Lcmm_tier.Loadgen.run ~handler ~mix ~rps ~duration_s:duration
              ~threads ()
          in
          let saturation_rps, steps =
            Lcmm_tier.Loadgen.find_saturation ~handler ~mix ~start_rps:rps
              ~duration_s:duration ~slo_p99_ms ~threads ~max_steps:sat_steps
              ()
          in
          Printf.eprintf
            "  %d shard(s): p50 %.2f ms  p99 %.2f ms  p999 %.2f ms  \
             saturation %.0f rps\n%!"
            n measured.Lcmm_tier.Loadgen.p50_ms
            measured.Lcmm_tier.Loadgen.p99_ms
            measured.Lcmm_tier.Loadgen.p999_ms saturation_rps;
          (n, measured, saturation_rps, steps))
    in
    let tiers = List.map bench_tier counts in
    let slo_pass =
      List.for_all
        (fun (_, m, _, _) -> m.Lcmm_tier.Loadgen.p99_ms <= slo_p99_ms)
        tiers
    in
    let module Json = Dnn_serial.Json in
    let doc =
      Json.Obj
        [ ("experiment", Json.String "serve");
          ("slo_p99_ms", Json.Float slo_p99_ms);
          ("mix_requests", Json.Int (List.length mix));
          ( "tiers",
            Json.List
              (List.map
                 (fun (n, m, saturation_rps, steps) ->
                   Json.Obj
                     [ ("shards", Json.Int n);
                       ("measured", Lcmm_tier.Loadgen.result_to_json m);
                       ("saturation_rps", Json.Float saturation_rps);
                       ( "ladder",
                         Json.List
                           (List.map Lcmm_tier.Loadgen.result_to_json steps)
                       ) ])
                 tiers) );
          ("slo_pass", Json.Bool slo_pass) ]
    in
    write_json json_path doc;
    Printf.printf "wrote %s (slo_pass: %b)\n" json_path slo_pass
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop load benchmark of the sharded tier: drive a zoo-sampled \
          request mix at a configured RPS against each shard count, report \
          p50/p99/p999 latency and the saturation RPS ladder to a JSON file \
          with a p99 SLO verdict.")
    Term.(
      const run $ log_arg $ shard_counts_arg $ tier_workers_arg $ rps_arg
      $ duration_arg $ slo_arg $ threads_arg $ sat_steps_arg $ mix_models_arg
      $ json_arg)

(* bench chaos: the zoo mix through a deliberately faulty tier, over a
   ladder of fault intensities.  The report answers three questions:
   how much availability the resilience layer preserves (retries,
   hedges, failover), whether any fault ever reached a client as a
   silently wrong answer (every success is compared byte-for-byte
   against a fault-free reference), and whether the injection itself is
   reproducible (a digest over the per-rung fault/recovery counters —
   two runs with the same spec and seed must produce the same
   fingerprint). *)
let bench_chaos_cmd =
  let chaos_spec_arg =
    let doc =
      "Transport-fault spec driven through the intensity ladder (the \
       probabilities scale, the magnitudes do not)."
    in
    Arg.(
      value
      & opt fault_spec_conv
          (match
             Fault.Spec.of_string
               "seed=42,delay:0.08:40,hang:0.02,trunc:0.02,corrupt:0.02,reset:0.03"
           with
          | Ok s -> s
          | Error _ -> Fault.Spec.empty)
      & info [ "chaos" ] ~docv:"SPEC" ~doc)
  in
  let intensities_arg =
    let doc =
      "Comma-separated probability multipliers, one bench rung each."
    in
    Arg.(value & opt string "0.25,0.5,1.0" & info [ "intensities" ] ~doc)
  in
  let requests_arg =
    let doc = "Requests per rung (driven single-threaded, unpaced)." in
    Arg.(value & opt int 300 & info [ "requests" ] ~doc)
  in
  let mix_models_arg =
    let doc = "Zoo models in the request mix (smallest first)." in
    Arg.(value & opt int 4 & info [ "mix-models" ] ~doc)
  in
  let availability_floor_arg =
    let doc = "Availability the middle rung must meet (gates chaos_pass)." in
    Arg.(value & opt float 0.99 & info [ "availability-floor" ] ~doc)
  in
  let json_arg =
    let doc = "Write the report to $(docv)." in
    Arg.(
      value & opt string "BENCH_chaos.json" & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run () spec intensities workers shards retries hedge_ms call_timeout_ms
      requests mix_models availability_floor json_path =
    if not (Fault.Spec.has_transport_faults spec) then
      or_die (Error "the --chaos spec has no transport clauses");
    if requests < 1 then or_die (Error "requests must be >= 1");
    let intensities =
      String.split_on_char ',' intensities
      |> List.filter_map (fun s ->
             let s = String.trim s in
             if s = "" then None else Some s)
      |> List.map (fun s ->
             match float_of_string_opt s with
             | Some f when f > 0. -> f
             | _ -> or_die (Error (Printf.sprintf "bad intensity %S" s)))
    in
    if intensities = [] then or_die (Error "no intensities given");
    let module Json = Dnn_serial.Json in
    let module Tier = Lcmm_tier.Tier in
    let module Loadgen = Lcmm_tier.Loadgen in
    let mix = Loadgen.zoo_mix ~models:mix_models () in
    (* The fault-free reference: an in-process engine rendering
       canonical (timing-free) responses — exactly the bytes the tier
       must re-render when it answers the same request correctly.
       [stats] answers are tier-specific and exempt. *)
    let reference_engine = Lcmm_service.Engine.create () in
    let reference_tbl = Hashtbl.create 16 in
    List.iter
      (fun line ->
        match Json.of_string line with
        | Ok doc
          when Json.member_opt "op" doc = Some (Json.String "stats") ->
          ()
        | _ ->
          Hashtbl.replace reference_tbl line
            (Lcmm_service.Engine.handle_line ~timing:false reference_engine
               line))
      mix;
    Lcmm_service.Engine.shutdown reference_engine;
    let socket_dir = tier_socket_dir () in
    (* Determinism over realism for the breaker: a huge threshold keeps
       injected failures from tripping circuits whose open/close timing
       would couple the counters to the wall clock. *)
    let tier, cleanup =
      spawn_tier ~shards ~workers ~vnodes:64 ~max_inflight:64
        ~cache_entries:256 ~cache_mb:64 ~cache_dir:None ~deadline_ms:None
        ~router_cache_entries:1 ~router_cache_mb:1 ~timing:false ~retries
        ~hedge_ms ~call_timeout_ms ~breaker_threshold:1_000_000 ~socket_dir ()
    in
    Fun.protect ~finally:cleanup (fun () ->
        let handler = Tier.handle_line tier in
        (* Warm the shard caches fault-free so rung traffic measures
           the serving path; the router cache is minimal (1 entry) so
           warm requests cannot short-circuit later rungs away from the
           wire the chaos injector sits on. *)
        List.iter (fun line -> ignore (handler line)) mix;
        let counters_before = ref (Tier.counter_list tier) in
        let delta after =
          List.map
            (fun (k, v) ->
              let v0 =
                match List.assoc_opt k !counters_before with
                | Some v0 -> v0
                | None -> 0
              in
              (k, v - v0))
            after
        in
        let bench_rung intensity =
          Printf.eprintf "bench chaos: intensity %.2f...\n%!" intensity;
          let rung_spec = Fault.Spec.scale_transport spec intensity in
          let chaos =
            match Lcmm_tier.Chaos.create rung_spec with
            | Some c -> c
            | None -> or_die (Error "scaled spec lost its transport clauses")
          in
          Tier.set_chaos tier (Some chaos);
          let measured =
            Loadgen.run ~handler ~mix ~rps:(float_of_int requests)
              ~duration_s:1.0 ~threads:1
              ~reference:(fun line -> Hashtbl.find_opt reference_tbl line)
              ()
          in
          Tier.set_chaos tier None;
          let after = Tier.counter_list tier in
          let tier_delta = delta after in
          counters_before := after;
          let availability =
            float_of_int measured.Loadgen.ok
            /. float_of_int (max 1 measured.Loadgen.sent)
          in
          Printf.eprintf
            "  intensity %.2f: availability %.4f  p99 %.2f ms  divergent %d\n%!"
            intensity availability measured.Loadgen.p99_ms
            measured.Loadgen.divergent;
          (intensity, rung_spec, measured, availability,
           Lcmm_tier.Chaos.counter_list chaos, tier_delta)
        in
        let rungs = List.map bench_rung intensities in
        (* The reproducibility fingerprint: every injected-fault and
           recovery counter of every rung, in a canonical rendering.
           Same spec + seed + request stream => same digest. *)
        let fingerprint =
          rungs
          |> List.map (fun (intensity, _, m, _, chaos_counters, tier_delta) ->
                 Printf.sprintf "%.4f|%s|%s|ok=%d;err=%d;div=%d" intensity
                   (String.concat ";"
                      (List.map
                         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                         chaos_counters))
                   (String.concat ";"
                      (List.map
                         (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                         (List.filter
                            (fun (k, _) ->
                              List.mem k
                                [ "retries"; "hedges"; "hedge_wins";
                                  "invalid_replies" ])
                            tier_delta)))
                   m.Loadgen.ok m.Loadgen.errors m.Loadgen.divergent)
          |> String.concat "\n"
          |> Dnn_serial.Codec.digest_string
        in
        let mid_availability =
          let n = List.length rungs in
          match List.nth_opt rungs (n / 2) with
          | Some (_, _, _, a, _, _) -> a
          | None -> 0.
        in
        let divergent_total =
          List.fold_left
            (fun acc (_, _, m, _, _, _) -> acc + m.Loadgen.divergent)
            0 rungs
        in
        let availability_pass = mid_availability >= availability_floor in
        let integrity_pass = divergent_total = 0 in
        let doc =
          Json.Obj
            [ ("experiment", Json.String "chaos");
              ("spec", Json.String (Fault.Spec.to_string spec));
              ("requests_per_rung", Json.Int requests);
              ("shards", Json.Int shards);
              ("retries", Json.Int retries);
              ("hedge_ms", Json.Float hedge_ms);
              ("call_timeout_ms", Json.Float call_timeout_ms);
              ( "rungs",
                Json.List
                  (List.map
                     (fun ( intensity, rung_spec, m, availability,
                            chaos_counters, tier_delta ) ->
                       Json.Obj
                         [ ("intensity", Json.Float intensity);
                           ( "spec",
                             Json.String (Fault.Spec.to_string rung_spec) );
                           ("availability", Json.Float availability);
                           ("measured", Loadgen.result_to_json m);
                           ( "injected",
                             Json.Obj
                               (List.map
                                  (fun (k, v) -> (k, Json.Int v))
                                  chaos_counters) );
                           ( "tier",
                             Json.Obj
                               (List.map
                                  (fun (k, v) -> (k, Json.Int v))
                                  tier_delta) ) ])
                     rungs) );
              ("mid_availability", Json.Float mid_availability);
              ("availability_floor", Json.Float availability_floor);
              ("divergent_total", Json.Int divergent_total);
              ("counter_fingerprint", Json.String fingerprint);
              ("availability_pass", Json.Bool availability_pass);
              ("integrity_pass", Json.Bool integrity_pass);
              ( "chaos_pass",
                Json.Bool (availability_pass && integrity_pass) ) ]
        in
        write_json json_path doc;
        Printf.printf
          "wrote %s (availability_pass: %b, integrity_pass: %b, fingerprint: \
           %s)\n"
          json_path availability_pass integrity_pass fingerprint)
  in
  let shards_arg =
    let doc = "Backend shard processes." in
    Arg.(value & opt int 2 & info [ "shards" ] ~doc)
  in
  let retries_arg =
    let doc = "Retry budget per candidate shard." in
    Arg.(value & opt int 2 & info [ "retries" ] ~doc)
  in
  let hedge_ms_arg =
    let doc = "Hedge threshold in milliseconds." in
    Arg.(value & opt float 150. & info [ "hedge-ms" ] ~doc)
  in
  let call_timeout_arg =
    let doc = "Per-call reply timeout in milliseconds." in
    Arg.(value & opt float 250. & info [ "call-timeout-ms" ] ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos soak of the sharded tier: drive the zoo mix through a \
          seeded transport-fault injector over an intensity ladder; report \
          availability, tail latency, injected-fault and recovery counters, \
          verify every successful response byte-identical to a fault-free \
          reference, and fingerprint the counters for reproducibility.")
    Term.(
      const run $ log_arg $ chaos_spec_arg $ intensities_arg
      $ tier_workers_arg $ shards_arg $ retries_arg $ hedge_ms_arg
      $ call_timeout_arg $ requests_arg $ mix_models_arg
      $ availability_floor_arg $ json_arg)

let bench_fusion_cmd =
  let json_arg =
    let doc = "Write the report to $(docv)." in
    Arg.(
      value & opt string "BENCH_fusion.json" & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run () dtype json_path domains =
    let module F = Lcmm.Framework in
    let module Fz = Lcmm_fusion.Fusion in
    let module Seg = Lcmm_fusion.Segmentation in
    let module Json = Dnn_serial.Json in
    let options = { F.default_options with F.fusion = true } in
    let rows, wins, saved =
      with_pool domains (fun pool ->
          List.fold_left
            (fun (rows, wins, saved) e ->
              let name = e.Models.Zoo.model_name in
              let model, g = or_die (build_model name) in
              let c = F.compare_designs ~options ?pool ~model dtype g in
              let base = c.F.lcmm_plan in
              let fz = Fz.apply ?pool base in
              let capacity = Accel.Config.sram_budget_bytes base.F.config in
              let tile =
                Lcmm.Policies.run base.F.metric ~dtype ~capacity_bytes:capacity
                  [] Lcmm.Policies.Stream_tile
              in
              let tile_traffic =
                Lcmm.Traffic.of_allocation base.F.metric
                  ~on_chip:tile.Lcmm.Policies.on_chip
              in
              let umm_traffic = Lcmm.Traffic.umm base.F.metric in
              let lcmm_ddr = Lcmm.Traffic.total_bytes fz.Fz.base_traffic in
              let fusion_ddr = Lcmm.Traffic.total_bytes fz.Fz.traffic in
              Printf.eprintf
                "bench fusion: %-12s LCMM %.3f ms / %d B  ->  +fusion %.3f \
                 ms / %d B (%d seg, %d streamed)\n\
                 %!"
                model
                (base.F.predicted_latency *. 1e3)
                lcmm_ddr
                (fz.Fz.predicted_latency *. 1e3)
                fusion_ddr
                (List.length fz.Fz.segments)
                (List.length fz.Fz.streamed);
              let row =
                Json.Obj
                  [ ("model", Json.String model);
                    ( "umm",
                      Json.Obj
                        [ ( "latency_ms",
                            Json.Float
                              (c.F.umm.F.latency_seconds *. 1e3) );
                          ( "ddr_bytes",
                            Json.Int (Lcmm.Traffic.total_bytes umm_traffic) )
                        ] );
                    ( "lcmm",
                      Json.Obj
                        [ ( "latency_ms",
                            Json.Float (base.F.predicted_latency *. 1e3) );
                          ("ddr_bytes", Json.Int lcmm_ddr);
                          ("sram_bytes", Json.Int base.F.tensor_sram_bytes) ]
                    );
                    ( "lcmm_fusion",
                      Json.Obj
                        [ ( "latency_ms",
                            Json.Float (fz.Fz.predicted_latency *. 1e3) );
                          ("ddr_bytes", Json.Int fusion_ddr);
                          ("ddr_bytes_saved", Json.Int (Fz.ddr_bytes_saved fz));
                          ("segments", Json.Int (List.length fz.Fz.segments));
                          ( "fused_nodes",
                            Json.Int
                              (List.fold_left
                                 (fun a (s : Seg.segment) ->
                                   a + s.Seg.last - s.Seg.first + 1)
                                 0 fz.Fz.segments) );
                          ( "streamed_weights",
                            Json.Int (List.length fz.Fz.streamed) );
                          ("fifo_bytes", Json.Int fz.Fz.fifo_bytes);
                          ("peak_sram_bytes", Json.Int fz.Fz.peak_sram_bytes)
                        ] );
                    ( "stream_tile",
                      Json.Obj
                        [ ( "latency_ms",
                            Json.Float (tile.Lcmm.Policies.latency *. 1e3) );
                          ( "ddr_bytes",
                            Json.Int (Lcmm.Traffic.total_bytes tile_traffic) );
                          ( "feasible",
                            Json.Bool tile.Lcmm.Policies.feasible ) ] ) ]
              in
              ( row :: rows,
                (if fusion_ddr < lcmm_ddr then wins + 1 else wins),
                saved + Fz.ddr_bytes_saved fz ))
            ([], 0, 0) Models.Zoo.all)
    in
    let doc =
      Json.Obj
        [ ("experiment", Json.String "fusion");
          ("dtype", Json.String (Tensor.Dtype.to_string dtype));
          ("models", Json.List (List.rev rows));
          ( "summary",
            Json.Obj
              [ ("fusion_ddr_wins", Json.Int wins);
                ("models_total", Json.Int (List.length Models.Zoo.all));
                ("total_ddr_bytes_saved", Json.Int saved) ] ) ]
    in
    write_json json_path doc;
    Printf.printf "wrote %s (fusion wins DDR on %d/%d models, %d bytes saved)\n"
      json_path wins
      (List.length Models.Zoo.all)
      saved
  in
  Cmd.v
    (Cmd.info "fusion"
       ~doc:
         "Benchmark LCMM against LCMM plus fused-layer segments and weight \
          streaming, and against the TGPA-style stream-tile design, across \
          the model zoo; write per-model latency and DDR traffic to a JSON \
          report.")
    Term.(const run $ log_arg $ dtype_arg $ json_arg $ domains_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench" ~doc:"Load benchmarks against the serving stack.")
    [ bench_serve_cmd; bench_chaos_cmd; bench_fusion_cmd ]

let () =
  let info = Cmd.info "lcmm" ~doc:"Layer-conscious memory management for FPGA DNN accelerators" in
  let group =
    Cmd.group info
      [ models_cmd; summary_cmd; roofline_cmd; allocate_cmd; plan_cmd; simulate_cmd;
        compare_cmd; dot_cmd; export_cmd; info_cmd; schedule_cmd; trace_cmd;
        traffic_cmd; sensitivity_cmd; runtime_cmd; serve_cmd; tier_cmd;
        bench_cmd; check_cmd ]
  in
  (* One-line diagnostics instead of cmdliner's uncaught-exception dump:
     whatever escapes a subcommand (I/O errors, invalid arguments deep in
     the passes) becomes a single stderr line and a non-zero exit. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception Sys_error msg ->
    prerr_endline ("lcmm: " ^ msg);
    exit 2
  | exception Invalid_argument msg | exception Failure msg ->
    prerr_endline ("lcmm: " ^ msg);
    exit 2
  | exception e ->
    prerr_endline ("lcmm: internal error: " ^ Printexc.to_string e);
    exit 125
