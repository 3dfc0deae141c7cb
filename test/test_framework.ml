(* End-to-end LCMM framework runs and option toggles. *)

module F = Lcmm.Framework
module Metric = Lcmm.Metric
module Dnnk = Lcmm.Dnnk

let plan_for ?options g =
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  F.plan ?options cfg g

let test_plan_improves () =
  let g = Helpers.inception_snippet () in
  let p = plan_for g in
  let umm = Accel.Latency.umm_total p.F.metric.Metric.profiles in
  Alcotest.(check bool) "improves" true (p.F.predicted_latency < umm);
  Alcotest.(check bool) "pol in range" true (p.F.pol >= 0. && p.F.pol <= 1.);
  Alcotest.(check bool) "capacity respected" true
    (p.F.tensor_sram_bytes <= Accel.Config.sram_budget_bytes p.F.config)

(* The profile and metric a plan starts from are charged to
   [profile_us], the first pass clock; the prepared stage's times reach
   every plan finished from it. *)
let test_profile_time_charged () =
  let g = Models.Zoo.build "densenet121" in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let table = Accel.Latency.table Tensor.Dtype.I16 ~fused_eltwise:false g in
  let prepared = F.prepare cfg table g in
  let p = F.finish (F.allocate prepared) in
  let times = p.F.pass_times in
  Alcotest.(check bool) "profile_us > 0" true (times.F.profile_us > 0.);
  Alcotest.(check (option (float 0.))) "listed first" (Some times.F.profile_us)
    (match F.pass_times_assoc times with
    | ("profile_us", us) :: _ -> Some us
    | _ -> None);
  let again = F.finish (F.allocate prepared) in
  Alcotest.(check (float 0.)) "shared by plans of one prepared model"
    times.F.profile_us again.F.pass_times.F.profile_us

let test_option_toggles () =
  let g = Helpers.inception_snippet () in
  let base = F.default_options in
  let full = plan_for ~options:base g in
  let feature_only = plan_for ~options:{ base with weight_prefetch = false } g in
  let weight_only = plan_for ~options:{ base with feature_reuse = false } g in
  let nothing =
    plan_for ~options:{ base with feature_reuse = false; weight_prefetch = false } g
  in
  (* Each pass alone is at most as good as both together. *)
  Alcotest.(check bool) "full <= feature-only" true
    (full.F.predicted_latency <= feature_only.F.predicted_latency +. 1e-12);
  Alcotest.(check bool) "full <= weight-only" true
    (full.F.predicted_latency <= weight_only.F.predicted_latency +. 1e-12);
  Alcotest.(check (float 1e-12)) "no passes = UMM"
    (Accel.Latency.umm_total nothing.F.metric.Metric.profiles)
    nothing.F.predicted_latency;
  (* Feature-only plans pin no weights. *)
  Alcotest.(check bool) "no weights pinned" true
    (Metric.Item_set.for_all
       (function
          | Metric.Feature_value _ -> true
          | Metric.Weight_of _ | Metric.Weight_slice _ -> false)
       feature_only.F.allocation.Dnnk.on_chip);
  Alcotest.(check bool) "feature-only has no pdg" true (feature_only.F.prefetch = None)

let test_no_sharing_option () =
  let g = Helpers.inception_snippet () in
  let shared = plan_for g in
  let unshared =
    plan_for ~options:{ F.default_options with buffer_sharing = false } g
  in
  (* Without sharing, each buffer holds exactly one tensor. *)
  List.iter
    (fun vb ->
      Alcotest.(check int) "singleton" 1 (Lcmm.Vbuffer.member_count vb))
    unshared.F.vbufs;
  (* Sharing cannot make the plan slower: it strictly adds packing
     freedom under the same capacity. *)
  Alcotest.(check bool) "sharing helps or ties" true
    (shared.F.predicted_latency <= unshared.F.predicted_latency +. 1e-9)

let test_memory_bound_only_filter () =
  let g = Helpers.inception_snippet () in
  let restricted = plan_for g in
  let unrestricted =
    plan_for ~options:{ F.default_options with memory_bound_only = false } g
  in
  (* Considering more tensors can only help (same allocator). *)
  Alcotest.(check bool) "superset at least as good" true
    (unrestricted.F.predicted_latency <= restricted.F.predicted_latency +. 1e-9)

let test_compare_designs_shape () =
  let g = Models.Zoo.build "googlenet" in
  let c = F.compare_designs ~model:"googlenet" Tensor.Dtype.I16 g in
  Alcotest.(check bool) "speedup > 1" true (c.F.speedup > 1.0);
  Alcotest.(check bool) "lcmm uses more sram" true
    (c.F.lcmm.F.sram_util > c.F.umm.F.sram_util);
  Alcotest.(check bool) "tops consistent" true
    (abs_float
       (c.F.lcmm.F.tops
       -. (2. *. float_of_int (Dnn_graph.Graph.total_macs g)
          /. c.F.lcmm.F.latency_seconds /. 1e12))
    < 1e-9);
  Alcotest.(check bool) "utilizations in [0,1.2]" true
    (List.for_all
       (fun u -> u >= 0. && u <= 1.2)
       [ c.F.umm.F.dsp_util; c.F.umm.F.sram_util; c.F.lcmm.F.dsp_util;
         c.F.lcmm.F.sram_util; c.F.lcmm.F.bram_util; c.F.lcmm.F.uram_util ])

let test_helped_layers_consistent () =
  let g = Helpers.diamond () in
  let p = plan_for g in
  let helped, bound = F.helped_layers p in
  Alcotest.(check bool) "helped <= bound" true (helped <= bound);
  Alcotest.(check (float 1e-9)) "pol matches"
    (if bound = 0 then 1. else float_of_int helped /. float_of_int bound)
    p.F.pol

let prop_plan_never_worse_than_umm =
  Helpers.qtest ~count:20 "plan never worse than UMM on its design"
    Helpers.random_graph_gen (fun g ->
      let p = plan_for g in
      p.F.predicted_latency
      <= Accel.Latency.umm_total p.F.metric.Metric.profiles +. 1e-9)

(* The channel-assignment pass joins the fingerprint when channels > 1:
   a 4-channel plan carries a 4-channel assignment with its balance in
   [0, 1], and a plan at 1 channel must digest exactly as a plan with
   no channel option (the assignment is [None]). *)
let prop_channel_assignment =
  let gen = QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 8 48)) in
  Helpers.qtest ~count:25 "channel assignment is byte-identical at 1 channel, balanced at 4"
    gen (fun (seed, nodes) ->
      let g =
        Check.Gen.sized_graph ~family:Check.Gen.Mixed
          (Random.State.make [| 13; seed; nodes |])
          ~nodes
      in
      let cfg = Helpers.default_config () in
      let options = { F.default_options with F.channels = 4 } in
      let digest p = Dnn_serial.Codec.digest_string (F.fingerprint p) in
      (match (F.plan ~options cfg g).F.channel_assignment with
      | Some a ->
        assert (a.Lcmm.Channels.channels = 4);
        assert (Lcmm.Channels.balance a >= 0. && Lcmm.Channels.balance a <= 1.)
      | None -> assert false);
      digest (F.plan cfg g)
      = digest (F.plan ~options:{ options with F.channels = 1 } cfg g))

let prop_on_chip_items_are_eligible =
  Helpers.qtest ~count:20 "pinned items come from the eligible set"
    Helpers.random_graph_gen (fun g ->
      let p = plan_for g in
      let eligible =
        Metric.Item_set.of_list
          (Metric.eligible_items p.F.metric ~memory_bound_only:true)
      in
      Metric.Item_set.subset p.F.allocation.Dnnk.on_chip eligible)

(* The staged planner.  golden/plan_scaled.golden pins, per zoo model
   at its LCMM design point, the plan fingerprint at the full SRAM
   budget and at a quarter of it, with unhidden stalls scaled by 1,
   1.25, 4 and 1000 — recorded from the single-call planner before it
   was split into prepare / allocate / finish.  Here one [prepared] per
   model and one [allocated] per budget are finished at every scale:
   the digests must match, finishing in the reverse order must give the
   same fingerprints, every plan of a model must share its metric and
   PDG, and at least one model must prune at scale 1000 — a scaled
   finish that ignored its scale would leave every digest equal to the
   scale-1 one and fail that case. *)
let test_staged_scaled () =
  let scales = [ 1.; 1.25; 4.; 1e3 ] in
  let pruned = ref 0 in
  let lines =
    List.concat_map
      (fun (e : Models.Zoo.entry) ->
        let g = e.Models.Zoo.build () in
        let dse = Accel.Dse.run ~style:Accel.Config.Lcmm Tensor.Dtype.I16 g in
        let config = dse.Accel.Dse.config in
        let budget = Accel.Config.sram_budget_bytes config in
        let prepared = F.prepare config dse.Accel.Dse.table g in
        List.concat_map
          (fun divisor ->
            let key = Printf.sprintf "%s/b%d" e.Models.Zoo.model_name divisor in
            let al = F.allocate ~capacity_bytes:(budget / divisor) prepared in
            let finish s = F.finish ~stall_scale:s al in
            let forward = List.map finish scales in
            let backward = List.rev_map finish (List.rev scales) in
            let first = List.hd forward in
            List.iter2
              (fun a b ->
                if F.fingerprint a <> F.fingerprint b then
                  Alcotest.failf "%s: finishing order changed a plan" key;
                if
                  not
                    (a.F.metric == first.F.metric
                    && Option.equal ( == ) a.F.prefetch first.F.prefetch)
                then Alcotest.failf "%s: plans do not share metric and PDG" key)
              forward backward;
            let on_chip p = p.F.allocation.Dnnk.on_chip in
            let at_1 = on_chip first and at_1e3 = on_chip (List.nth forward 3) in
            if Metric.Item_set.subset at_1e3 at_1
               && not (Metric.Item_set.equal at_1e3 at_1)
            then incr pruned;
            List.map2
              (fun s p ->
                Printf.sprintf "%s/s%g %s" key s
                  (Dnn_serial.Codec.digest_string (F.fingerprint p)))
              scales forward)
          [ 1; 4 ])
      Models.Zoo.all
  in
  let expected = Helpers.read_lines "golden/plan_scaled.golden" in
  Alcotest.(check int) "case count" (List.length expected) (List.length lines);
  List.iter2
    (fun e a -> if e <> a then Alcotest.failf "plan changed: want %s, got %s" e a)
    expected lines;
  Alcotest.(check bool) "a plan prunes at scale 1000" true (!pruned > 0)

(* A compile plans the LCMM design from the DSE's table; the plan is the
   one [plan] makes from a table it compiles itself, on every zoo model
   and precision, with the fusion post-pass option off and on. *)
let test_compile_equals_plan () =
  List.iter
    (fun (e : Models.Zoo.entry) ->
      let g = e.Models.Zoo.build () in
      List.iter
        (fun dtype ->
          List.iter
            (fun fusion ->
              let options = { F.default_options with F.fusion } in
              let c =
                F.compare_designs ~options ~model:e.Models.Zoo.model_name dtype g
              in
              let p = F.plan ~options c.F.lcmm_plan.F.config g in
              if F.fingerprint c.F.lcmm_plan <> F.fingerprint p then
                Alcotest.failf "%s %s fusion %b: compile plan differs"
                  e.Models.Zoo.model_name (Tensor.Dtype.to_string dtype) fusion)
            [ false; true ])
        Tensor.Dtype.[ I8; I16; F32 ])
    Models.Zoo.all

(* A comparison built from memoized stages is the one [compare_designs]
   builds from scratch.  Per zoo model, precision and option variant,
   one designs/prepared pair (prepared under the ladder's first request)
   feeds every capacity on the ladder with fusion off and on, as the
   service's stage memo does; after [Fusion.post], each plan must
   fingerprint as [compare_designs]' and the reports must agree.  The
   second variant changes all four fields [prepare] reads, and coloring
   and channels, which it does not. *)
let test_staged_compare_equals_compare_designs () =
  let variants =
    [ F.default_options;
      { F.default_options with
        F.feature_reuse = false;
        memory_bound_only = false;
        weight_slices = 3;
        coloring = Lcmm.Coloring.First_fit;
        channels = 2 };
      { F.default_options with F.weight_prefetch = false } ]
  in
  let post (c : F.comparison) = fst (Lcmm_fusion.Fusion.post c.F.lcmm_plan) in
  let check model g dtype variant =
    let dse = Accel.Dse.run_both dtype g in
    let designs = F.designs_of_dse g dse in
    let { Accel.Dse.config; table; _ } = dse.Accel.Dse.lcmm in
    let budget = Accel.Config.sram_budget_bytes config in
    let requests =
      List.concat_map
        (fun capacity_override ->
          List.map
            (fun fusion -> { variant with F.capacity_override; fusion })
            [ false; true ])
        [ None; Some (budget / 2); Some (budget / 8); Some (budget / 32) ]
    in
    let pr = F.prepare ~options:(List.hd requests) config table g in
    List.iter
      (fun options ->
        let staged = F.compare_staged ~options ~model designs g pr in
        let fresh = F.compare_designs ~options ~model dtype g in
        let what =
          Printf.sprintf "%s %s ws=%d cap=%s fusion=%b" model
            (Tensor.Dtype.to_string dtype) options.F.weight_slices
            (Option.fold ~none:"full" ~some:string_of_int
               options.F.capacity_override)
            options.F.fusion
        in
        if F.fingerprint (post staged) <> F.fingerprint (post fresh) then
          Alcotest.failf "%s: staged plan differs" what;
        if
          staged.F.umm <> fresh.F.umm
          || staged.F.lcmm <> fresh.F.lcmm
          || staged.F.speedup <> fresh.F.speedup
          || staged.F.dtype <> fresh.F.dtype
        then Alcotest.failf "%s: staged reports differ" what)
      requests
  in
  List.iter
    (fun (e : Models.Zoo.entry) ->
      let g = e.Models.Zoo.build () in
      List.iter
        (fun dtype ->
          List.iter (check e.Models.Zoo.model_name g dtype) variants)
        Tensor.Dtype.[ I8; I16; F32 ])
    Models.Zoo.all

(* [allocate ~options] runs the request's options over a prepared stage
   only when the fields [prepare] read agree; the others (capacity,
   coloring, sharing, splitting, compensation, fusion, channels) are the
   request's own and reach the plan. *)
let test_allocate_refuses_other_prepare_fields () =
  let g = Helpers.inception_snippet () in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let base = F.default_options in
  let prepared = F.prepare_graph ~options:base cfg g in
  List.iter
    (fun (field, options) ->
      Alcotest.check_raises field
        (Invalid_argument
           "Framework.allocate: options differ from the prepared stage's in a \
            field prepare reads")
        (fun () -> ignore (F.allocate ~options prepared)))
    [ ("feature_reuse", { base with F.feature_reuse = false });
      ("weight_prefetch", { base with F.weight_prefetch = false });
      ("memory_bound_only", { base with F.memory_bound_only = false });
      ("weight_slices", { base with F.weight_slices = 2 }) ];
  let options =
    { base with
      F.buffer_splitting = false;
      buffer_sharing = false;
      compensation = Lcmm.Dnnk.Exact_iterative;
      coloring = Lcmm.Coloring.First_fit;
      capacity_override = Some 65536;
      fusion = true;
      channels = 2 }
  in
  let p = F.finish (F.allocate ~options prepared) in
  Alcotest.(check bool) "the request's options reach the plan" true
    (p.F.options = options);
  Alcotest.(check string) "the plan [plan] makes under them"
    (F.fingerprint (F.plan ~options cfg g))
    (F.fingerprint p)

(* One prepared stage shared by concurrent allocations, as the
   runtime's grants and the service's workers share it: 8 capacities
   allocated on a 2-domain pool fingerprint as a sequential run does,
   and the stage's bytes (its coloring and compiled rows among them)
   are the same afterwards, since each allocation solves into its own
   workspace and splits on its own rows.  A request whose coloring or
   sharing differs from the stage's colors and compiles its own buffers
   the way [prepare] does, so its plan is the one [plan] makes. *)
let test_shared_stage_concurrent () =
  let g = Models.Zoo.build "googlenet" in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let budget = Accel.Config.sram_budget_bytes cfg in
  let prepared = F.prepare_graph cfg g in
  let bytes () = Marshal.to_string prepared [ Marshal.Closures ] in
  let before = bytes () in
  let capacities = List.init 8 (fun i -> budget * (i + 1) / 24) in
  let plan_at capacity_bytes =
    F.finish (F.allocate ~capacity_bytes prepared)
  in
  let sequential = List.map plan_at capacities in
  let pool = Lcmm.Pool.create ~domains:2 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Lcmm.Pool.shutdown pool)
      (fun () -> Lcmm.Pool.map_list pool plan_at capacities)
  in
  Alcotest.(check (list string)) "parallel fingerprints are sequential's"
    (List.map F.fingerprint sequential)
    (List.map F.fingerprint parallel);
  Alcotest.(check bool) "some capacity splits" true
    (List.exists (fun p -> p.F.splitting_iterations > 0) sequential);
  Alcotest.(check bool) "the stage is unchanged by its allocations" true
    (String.equal before (bytes ()));
  List.iter
    (fun (what, options) ->
      let options = { options with F.capacity_override = Some (budget / 6) } in
      Alcotest.(check string) what
        (F.fingerprint (F.plan ~options cfg g))
        (F.fingerprint (F.finish (F.allocate ~options prepared))))
    [ ("first-fit coloring", { F.default_options with F.coloring = Lcmm.Coloring.First_fit });
      ("no sharing", { F.default_options with F.buffer_sharing = false }) ];
  Alcotest.(check bool) "the stage is unchanged by other colorings" true
    (String.equal before (bytes ()))

let test_prepare_refuses_other_table () =
  let g = Helpers.diamond () in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  List.iter
    (fun (label, dtype, fused_eltwise) ->
      Alcotest.check_raises label
        (Invalid_argument
           "Latency: table compiled for another dtype or fusion setting")
        (fun () ->
          ignore (F.prepare cfg (Accel.Latency.table dtype ~fused_eltwise g) g)))
    [ ("other dtype", Tensor.Dtype.I8, false);
      ("other fusion setting", Tensor.Dtype.I16, true) ]

let suite =
  [ Alcotest.test_case "plan improves" `Quick test_plan_improves;
    Alcotest.test_case "option toggles" `Quick test_option_toggles;
    Alcotest.test_case "profile time charged" `Quick test_profile_time_charged;
    Alcotest.test_case "no sharing option" `Quick test_no_sharing_option;
    Alcotest.test_case "memory-bound-only filter" `Quick test_memory_bound_only_filter;
    Alcotest.test_case "compare designs" `Quick test_compare_designs_shape;
    Alcotest.test_case "compile plan equals plan" `Quick test_compile_equals_plan;
    Alcotest.test_case "prepare refuses another table" `Quick
      test_prepare_refuses_other_table;
    Alcotest.test_case "staged comparison equals compare_designs" `Quick
      test_staged_compare_equals_compare_designs;
    Alcotest.test_case "a shared stage allocates concurrently" `Quick
      test_shared_stage_concurrent;
    Alcotest.test_case "allocate refuses other prepare fields" `Quick
      test_allocate_refuses_other_prepare_fields;
    Alcotest.test_case "helped layers" `Quick test_helped_layers_consistent;
    Alcotest.test_case "staged plans at stall scales pinned" `Quick
      test_staged_scaled;
    prop_plan_never_worse_than_umm;
    prop_channel_assignment;
    prop_on_chip_items_are_eligible ]
