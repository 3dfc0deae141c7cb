(* lcmm: command-line front end for the LCMM reproduction.

   Subcommands:
   - one model at a time: models, summary, roofline, allocate, plan,
     simulate, compare, dot, export, info, schedule, trace, traffic,
     sensitivity;
   - several models on one board: runtime;
   - serving plans: serve (one process), tier (sharded over serve
     children);
   - checking and measuring: check (differential fuzzing) and bench
     (every paper table and figure plus the extension benches; see
     bench.ml). *)

open Cmdliner
open Common

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

(* --channels takes the service protocol's bound and message. *)
let channels_flag device c =
  Result.map_error
    (fun msg -> "--channels: " ^ msg)
    (Fpga.Device.check_channels device c)

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

(* Runtime parallelism: --domains N runs the independent per-tenant
   solves and schedule-search candidates on an N-domain pool.  The
   output is byte-identical to the sequential run, so golden comparisons
   hold at any domain count; 1 (the default) stays fully sequential. *)
let domains_arg =
  let doc =
    "Worker domains for the per-tenant solves and schedule-search \
     candidates (1 = sequential).  Each plan is computed on one domain; \
     output is byte-identical at every domain count."
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
      "Print the per-pass wall-clock breakdown (profile and metric, \
       liveness, interference, coloring, prefetch, DNNK, splitting, \
       segmentation, channel assignment) to stderr.  \
       Timings stay off stdout so the plan text remains byte-reproducible."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let plan_one ~profile ~fusion ~channels dtype name =
    let model, g = or_die (build_model name) in
    let options = { Lcmm.Framework.default_options with fusion; channels } in
    let c = Lcmm.Framework.compare_designs ~options ~model dtype g in
    let p, fz = Lcmm_fusion.Fusion.post c.Lcmm.Framework.lcmm_plan in
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
        (Fz.fused_nodes fz)
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
        p.Lcmm.Framework.tensor_sram_bytes);
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
       many channels, at most the device's DDR banks (4 on the vu9p the \
       plans target); a summary line joins the plan output.  1 (the \
       default) skips the pass and keeps the output byte-identical."
    in
    Arg.(value & opt int 1 & info [ "channels" ] ~docv:"N" ~doc)
  in
  let run () name dtype profile fusion channels =
    ignore (or_die (channels_flag Fpga.Device.vu9p channels));
    match name with
    | Some name -> plan_one ~profile ~fusion ~channels dtype name
    | None ->
      List.iter
        (fun e ->
          plan_one ~profile ~fusion ~channels dtype e.Models.Zoo.model_name)
        Models.Zoo.all
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Deterministic plan summary for one model (or the whole zoo), \
          suitable for golden-file comparison; --profile adds a per-pass \
          timing breakdown on stderr, and --fusion runs the fused-layer / \
          weight-streaming post-pass.")
    Term.(
      const run $ log_arg $ model_opt_arg $ dtype_arg $ profile_arg
      $ fusion_arg $ channels_arg)

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

(* The spec syntax shared by runtime --faults and tier --chaos; a
   malformed spec is a CLI error (cmdliner exits 124) carrying the
   parser's clause-and-position diagnosis. *)
let fault_spec_conv =
  let parse s =
    match Fault.Spec.of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf (Fault.Spec.to_string s))

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
  let policy_conv ~what ~all of_string to_string =
    let parse s =
      match of_string s with
      | Some p -> Ok p
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown %s %S (known: %s)" what s
               (String.concat ", " (List.map to_string all))))
    in
    Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (to_string p))
  in
  let arbitration_arg =
    let cv =
      policy_conv ~what:"arbitration" ~all:Lcmm_runtime.Arbiter.all
        Lcmm_runtime.Arbiter.of_string Lcmm_runtime.Arbiter.to_string
    in
    Arg.(
      value
      & opt cv Lcmm_runtime.Arbiter.Fair_share
      & info [ "arbitration" ] ~doc:"Bus arbitration: fair or priority.")
  in
  let scheduler_arg =
    let cv =
      policy_conv ~what:"scheduler" ~all:Lcmm_runtime.Scheduler.all
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
          ~doc:"DDR channels to schedule over, from 1 to the device's DDR \
                bank count.  1 is the aggregate fluid-bus model; 0 means \
                the bank count.")
  in
  let partition_arg =
    let cv =
      policy_conv ~what:"partition policy" ~all:Lcmm_runtime.Partition.all
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
          ~doc:"Arrival stagger: tenant $(i,i) arrives at $(i,i) times this \
                many milliseconds.")
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
    Arg.(
      value
      & opt (some fault_spec_conv) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Seeded fault injection, e.g. \
             $(b,seed=42,droop@2:3:0.5,stall:0.05:0.2,fail:0.02,bankloss@4:256k). \
             Clauses: $(b,seed=N), $(b,droop@T:DUR:FACTOR) (DDR bandwidth \
             droop window, ms), $(b,stall:PROB:MS) (transient transfer \
             stalls), $(b,fail:PROB) (transfer failures, retried with capped \
             exponential backoff), $(b,retries=N), $(b,backoff=BASE:CAP) \
             (ms), $(b,bankloss@T:BYTES[:TENANT]) (SRAM bank loss, \
             triggering degraded-mode replanning), $(b,abort@T:TENANT).  A \
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
  let run () mix dtype device arbitration scheduler channels partition
      overcommit stagger_ms seed json_path faults fusion domains =
    if overcommit <= 0. then or_die (Error "overcommit must be positive");
    if stagger_ms < 0. then or_die (Error "stagger-ms must be non-negative");
    let channels =
      or_die
        (channels_flag device
           (if channels = 0 then Fpga.Device.ddr_channels device else channels))
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
      { Lcmm_runtime.Runtime.dtype; device; arbitration; scheduler; channels;
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
      $ arbitration_arg $ scheduler_arg $ channels_arg $ partition_arg
      $ overcommit_arg $ stagger_arg $ seed_arg $ json_arg $ faults_arg
      $ fusion_arg $ domains_arg)

(* --- flags shared by serve and tier --- *)

(* A tier shard is one serve process, so the per-process flags below
   mean the same under both commands: the tier passes them on to every
   shard it spawns. *)

let socket_arg =
  let doc =
    "Listen on a Unix domain socket at $(docv) instead of stdin/stdout."
  in
  Arg.(value & opt (some string) None & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let workers_arg =
  let doc = "Worker domains compiling plans in parallel, per serve process." in
  Arg.(value & opt int 2 & info [ "w"; "workers" ] ~doc)

let cache_entries_arg =
  let doc =
    "Maximum plan-cache entries per serve process before LRU eviction."
  in
  Arg.(value & opt int 256 & info [ "cache-entries" ] ~doc)

let cache_mb_arg =
  let doc =
    "Maximum plan-cache payload megabytes per serve process before LRU \
     eviction."
  in
  Arg.(value & opt int 64 & info [ "cache-mb" ] ~doc)

let no_timing_arg =
  let doc =
    "Canonical responses: omit the cache and elapsed_ms fields, making each \
     response a pure function of its request (a tier answers byte for byte \
     what a single serve process answers)."
  in
  Arg.(value & flag & info [ "no-timing" ] ~doc)

let deadline_arg =
  let doc =
    "Default per-request compute budget in milliseconds for requests that \
     carry no deadline_ms field of their own; a request that runs past it \
     answers with a structured deadline error instead of stalling its \
     connection."
  in
  Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

(* A --cache-mb style flag in bytes, refused where the product wraps. *)
let mb_flag flag mb =
  or_die
    (Result.map_error
       (fun msg -> flag ^ ": " ^ msg)
       (Lcmm_service.Lru.bytes_of_mb mb))

let check_service_args ~workers ~cache_entries ~cache_mb ~deadline_ms =
  if workers < 1 then or_die (Error "workers must be >= 1");
  if cache_entries < 1 then or_die (Error "cache-entries must be >= 1");
  ignore (mb_flag "--cache-mb" cache_mb);
  match deadline_ms with
  | Some ms when ms <= 0. -> or_die (Error "deadline-ms must be positive")
  | _ -> ()

let serve_cmd =
  let cache_dir_arg =
    let doc =
      "Persist cached plans to $(docv) as JSON and rewarm from it on restart."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let run () socket workers cache_entries cache_mb cache_dir no_timing
      deadline_ms =
    check_service_args ~workers ~cache_entries ~cache_mb ~deadline_ms;
    let cache =
      Lcmm_service.Plan_cache.create ~max_entries:cache_entries
        ~max_bytes:(mb_flag "--cache-mb" cache_mb) ?persist_dir:cache_dir ()
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

let chaos_arg =
  let doc =
    "Seeded transport-fault injection on the router->shard path, e.g. \
     $(b,seed=42,delay:0.1:40,hang:0.02,trunc:0.02,corrupt:0.02,reset:0.05,slowshard@0:3).  \
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

let call_timeout_arg =
  let doc =
    "Per-call reply timeout in milliseconds on every shard connection; a \
     hung shard surfaces as a transport failure instead of wedging the \
     router."
  in
  Arg.(value & opt (some float) None & info [ "call-timeout-ms" ] ~docv:"MS" ~doc)

let shards_arg =
  let doc = "Number of backend shard processes." in
  Arg.(value & opt int 2 & info [ "shards" ] ~doc)

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
  let cache_dir_arg =
    let doc =
      "Root of the shards' disk caches: shard $(i,i) gets $(docv)/shard-$(i,i)."
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
  let socket_dir_arg =
    let doc = "Directory for the shard sockets (default: a fresh temp dir)." in
    Arg.(value & opt (some string) None & info [ "socket-dir" ] ~docv:"DIR" ~doc)
  in
  let run () shards workers vnodes max_inflight socket cache_entries cache_mb
      cache_dir router_cache_entries router_cache_mb no_timing deadline_ms
      socket_dir chaos_spec retries retry_backoff_ms hedge_ms call_timeout_ms
      drain_timeout_s =
    check_service_args ~workers ~cache_entries ~cache_mb ~deadline_ms;
    ignore (mb_flag "--router-cache-mb" router_cache_mb);
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
        ?hedge_ms ?call_timeout_ms ?chaos ~socket_dir ()
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
          propagation, graceful SIGTERM drain and seeded chaos injection.")
    Term.(
      const run $ log_arg $ shards_arg $ workers_arg $ vnodes_arg
      $ max_inflight_arg $ socket_arg $ cache_entries_arg $ cache_mb_arg
      $ cache_dir_arg $ router_cache_entries_arg $ router_cache_mb_arg
      $ no_timing_arg $ deadline_arg $ socket_dir_arg $ chaos_arg
      $ retries_arg $ retry_backoff_arg $ hedge_ms_arg $ call_timeout_arg
      $ drain_timeout_arg)

let bench_cmd =
  let names_arg =
    let doc = "Experiments to run (default: all of them)." in
    Arg.(value & pos_all string [] & info [] ~docv:"EXP" ~doc)
  in
  let json_arg =
    let doc =
      "Write the experiment's JSON report to $(docv); needs exactly one \
       EXP that has one."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let run () names json = Bench.run ~json names in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         ("Regenerate the paper's tables and figures and run the extension \
           benches: "
         ^ String.concat " " (List.map fst Bench.experiments)))
    Term.(const run $ log_arg $ names_arg $ json_arg)

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
