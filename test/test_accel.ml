(* The accelerator performance model: PE array, tiling, latency (Eq. 1),
   roofline and DSE. *)

module Pe = Accel.Pe_array
module Tiling = Accel.Tiling
module Config = Accel.Config
module Latency = Accel.Latency
module Dtype = Tensor.Dtype

let test_pe_basics () =
  let a = Pe.make ~tm_unroll:32 ~tn_unroll:16 ~tsp_unroll:8 in
  Alcotest.(check int) "macs" 4096 (Pe.macs_per_cycle a);
  Alcotest.(check int) "dsp i16" 4096 (Pe.dsp_usage Dtype.I16 a);
  Alcotest.(check int) "dsp i8 packs" 2048 (Pe.dsp_usage Dtype.I8 a);
  Alcotest.(check bool) "dsp f32 biggest" true
    (Pe.dsp_usage Dtype.F32 a > Pe.dsp_usage Dtype.I16 a);
  Alcotest.check_raises "bad unroll"
    (Invalid_argument "Pe_array.make: non-positive unroll factor") (fun () ->
      ignore (Pe.make ~tm_unroll:0 ~tn_unroll:1 ~tsp_unroll:1))

let test_pe_cycles () =
  let a = Pe.make ~tm_unroll:8 ~tn_unroll:8 ~tsp_unroll:4 in
  (* Perfectly divisible dims: cycles = macs / array. *)
  Alcotest.(check int) "exact" (16 * 16 * 8 * 9 / 256)
    (Pe.conv_cycles a ~m:16 ~c:16 ~hw:8 ~k2:9);
  (* Padding rounds every dim up. *)
  Alcotest.(check int) "padded" (16 * 16 * 8 / 256)
    (Pe.conv_cycles a ~m:9 ~c:9 ~hw:5 ~k2:1)

let test_pe_default_for () =
  let a = Pe.default_for Fpga.Device.vu9p Dtype.I16 ~dsp_fraction:0.83 in
  Alcotest.(check bool) "fits budget" true (Pe.dsp_usage Dtype.I16 a <= 5677);
  Alcotest.(check bool) "uses most of it" true (Pe.dsp_usage Dtype.I16 a > 4500);
  Alcotest.(check bool) "spatial unroll sane" true (a.Pe.tsp_unroll <= 32);
  (* i8 packing doubles the array for the same budget. *)
  let a8 = Pe.default_for Fpga.Device.vu9p Dtype.I8 ~dsp_fraction:0.83 in
  Alcotest.(check bool) "i8 array bigger" true
    (Pe.macs_per_cycle a8 > Pe.macs_per_cycle a);
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Pe_array.default_for: dsp_fraction out of (0, 1]") (fun () ->
      ignore (Pe.default_for Fpga.Device.vu9p Dtype.I16 ~dsp_fraction:1.5))

let test_tiling_trips () =
  let t = Tiling.make ~tm:32 ~tn:32 ~th:14 ~tw:14 in
  (* Layer fits in one tile. *)
  let one = Tiling.trips t ~out_channels:32 ~out_h:14 ~out_w:14 ~kernel:(3, 3) in
  Alcotest.(check int) "if once" 1 one.Tiling.if_trips;
  Alcotest.(check int) "wt once" 1 one.Tiling.wt_trips;
  Alcotest.(check (float 1e-9)) "no halo" 1.0 one.Tiling.halo;
  (* Bigger layer: 4 channel groups, 16 spatial tiles. *)
  let big = Tiling.trips t ~out_channels:128 ~out_h:56 ~out_w:56 ~kernel:(3, 3) in
  Alcotest.(check int) "if trips" 4 big.Tiling.if_trips;
  Alcotest.(check int) "wt trips" 16 big.Tiling.wt_trips;
  Alcotest.(check bool) "halo overread" true (big.Tiling.halo > 1.0)

let test_tiling_transactions () =
  let t = Tiling.make ~tm:32 ~tn:32 ~th:14 ~tw:14 in
  let txn = Tiling.transactions t ~out_channels:64 ~in_channels:64 ~out_h:28 ~out_w:28 in
  (* nm=2, nc=2, nsp=4 *)
  Alcotest.(check int) "loads" 16 txn.Tiling.if_txn;
  Alcotest.(check int) "weight loads" 16 txn.Tiling.wt_txn;
  Alcotest.(check int) "stores" 8 txn.Tiling.of_txn

let test_tiling_buffers () =
  let small = Tiling.make ~tm:16 ~tn:16 ~th:7 ~tw:7 in
  let large = Tiling.make ~tm:64 ~tn:64 ~th:28 ~tw:28 in
  Alcotest.(check bool) "monotone in size" true
    (Tiling.buffer_bytes Dtype.I16 small < Tiling.buffer_bytes Dtype.I16 large);
  Alcotest.(check bool) "monotone in dtype" true
    (Tiling.buffer_bytes Dtype.I8 large < Tiling.buffer_bytes Dtype.F32 large);
  Alcotest.(check bool) "bram blocks cover bytes" true
    (Tiling.bram_blocks Dtype.I16 large * Fpga.Resource.bram36_bytes
    >= Tiling.buffer_bytes Dtype.I16 large)

let test_config () =
  let c = Config.make ~style:Config.Umm Dtype.I16 in
  Alcotest.(check (float 1e-9)) "umm freq" 190. c.Config.freq_mhz;
  let l = Config.make ~style:Config.Lcmm Dtype.I16 in
  Alcotest.(check (float 1e-9)) "lcmm freq lower" 180. l.Config.freq_mhz;
  Alcotest.(check bool) "bandwidth below theoretical" true
    (Config.interface_bandwidth c < Fpga.Device.interface_bandwidth Fpga.Device.vu9p);
  Alcotest.(check bool) "sram budget below device" true
    (Config.sram_budget_bytes c < Fpga.Device.sram_bytes Fpga.Device.vu9p);
  Alcotest.(check bool) "peak positive" true (Config.peak_ops c > 0.)

let profile_fixture () =
  let g = Helpers.chain () in
  let cfg = Config.make ~style:Config.Umm Dtype.I16 in
  (g, cfg, Latency.profile_graph cfg g)

let test_latency_profiles () =
  let _, _, profiles = profile_fixture () in
  Alcotest.(check int) "one profile per node" 4 (Array.length profiles);
  let input = profiles.(0) in
  Alcotest.(check (float 0.)) "input free" 0. (Latency.umm_node_latency input);
  let conv = profiles.(1) in
  Alcotest.(check bool) "conv compute positive" true (conv.Latency.latc > 0.);
  Alcotest.(check int) "one input stream" 1 (Array.length conv.Latency.if_values);
  Alcotest.(check bool) "weight stream positive" true (conv.Latency.wt_term > 0.);
  Alcotest.(check bool) "load once <= streamed" true
    (conv.Latency.wt_load_once <= conv.Latency.wt_term +. 1e-12)

(* A mark holding every item of the metric: everything on chip. *)
let all_on_mark m =
  let on = Lcmm.Metric.mark (Lcmm.Metric.item_count m) in
  for i = 0 to Lcmm.Metric.item_count m - 1 do
    Lcmm.Metric.add on i
  done;
  on

let test_eq1_semantics () =
  let g, _, profiles = profile_fixture () in
  let m = Lcmm.Metric.build g profiles in
  let p = profiles.(1) in
  let all_off = Latency.umm_node_latency p in
  Alcotest.(check (float 0.)) "umm = kernel with nothing on chip"
    (Lcmm.Metric.umm_latency m 1) all_off;
  let all_on = Lcmm.Metric.node_latency_on m (all_on_mark m) 1 in
  Alcotest.(check (float 1e-12)) "fully pinned = compute" p.Latency.latc all_on;
  Alcotest.(check bool) "pinning never hurts" true (all_on <= all_off);
  (* Pinning one source is between the two. *)
  let wt_on =
    let on = Lcmm.Metric.mark (Lcmm.Metric.item_count m) in
    Lcmm.Metric.add on (Lcmm.Metric.item_index m (Lcmm.Metric.Weight_of 1));
    Lcmm.Metric.node_latency_on m on 1
  in
  Alcotest.(check bool) "partial between" true (all_on <= wt_on && wt_on <= all_off)

let test_memory_bound_count () =
  let g = Models.Zoo.build "inception_v4" in
  let cfg = Config.make ~style:Config.Umm Dtype.I16 in
  let mb, total, _ = Accel.Roofline.(summary (points cfg g)) in
  Alcotest.(check bool) "some memory bound" true (mb > 0);
  Alcotest.(check bool) "not all" true (mb < total);
  (* A substantial fraction, as the paper reports. *)
  Alcotest.(check bool) "fraction > 20%" true
    (float_of_int mb /. float_of_int total > 0.2)

let test_roofline () =
  let g = Helpers.chain () in
  let cfg = Config.make ~style:Config.Umm Dtype.I16 in
  let points = Accel.Roofline.points cfg g in
  Alcotest.(check int) "conv layers have points" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "attainable <= peak" true
        (p.Accel.Roofline.attainable_tops <= (Config.peak_ops cfg /. 1e12) +. 1e-9);
      Alcotest.(check bool) "intensity positive" true (p.Accel.Roofline.intensity > 0.))
    points;
  let ridge = Accel.Roofline.ridge_point cfg in
  Alcotest.(check bool) "ridge positive" true (ridge > 0.);
  (* At the ridge, both roofs agree. *)
  Alcotest.(check (float 1e-6)) "roofs meet"
    (Config.peak_ops cfg /. 1e12)
    (Accel.Roofline.attainable_tops cfg ridge)

let test_dse () =
  let g = Helpers.chain () in
  let r = Accel.Dse.run ~style:Config.Umm Dtype.I16 g in
  Alcotest.(check bool) "fits device" true
    (Fpga.Resource.fits r.Accel.Dse.resources
       ~within:Fpga.Device.vu9p.Fpga.Device.total);
  (* DSE should never lose to an arbitrary fixed candidate. *)
  let fixed = Tiling.make ~tm:16 ~tn:16 ~th:7 ~tw:7 in
  let cfg = Config.make ~tile:fixed ~style:Config.Umm Dtype.I16 in
  let fixed_lat = Latency.umm_total (Latency.profile_graph cfg g) in
  Alcotest.(check bool) "dse at least as good" true
    (r.Accel.Dse.umm_latency <= fixed_lat +. 1e-12)

(* The per-candidate DSE the table-driven sweep replaced: one whole
   profile per design point.  Kept here as the reference the sweep must
   match bit for bit. *)
let reference_dse ~device ~style dtype g =
  let candidates =
    List.concat_map
      (fun dsp_fraction ->
        List.map (fun t -> (dsp_fraction, t)) (Accel.Dse.candidate_tiles ()))
      [ 0.83; 0.6; 0.4; 0.25; 0.12 ]
  in
  let evaluate (dsp_fraction, tile) =
    let cfg = Config.make ~device ~dsp_fraction ~tile ~style dtype in
    let resources = Config.compute_resources cfg in
    if not (Fpga.Resource.fits resources ~within:device.Fpga.Device.total) then
      None
    else
      let umm_latency = Latency.umm_total (Latency.profile_graph cfg g) in
      Some { Accel.Dse.config = cfg; umm_latency; resources }
  in
  let better a b =
    let open Accel.Dse in
    if a.umm_latency < b.umm_latency then a
    else if b.umm_latency < a.umm_latency then b
    else if
      Tiling.buffer_bytes dtype a.config.Config.tile
      <= Tiling.buffer_bytes dtype b.config.Config.tile
    then a
    else b
  in
  match List.filter_map evaluate candidates with
  | [] -> invalid_arg "Dse.run: no tile configuration fits the device"
  | first :: rest -> List.fold_left better first rest

let test_dse_bit_exact () =
  let outcome f = match f () with r -> Ok r | exception Invalid_argument m -> Error m in
  let check_case label ~device ~style dtype g =
    match
      ( outcome (fun () -> reference_dse ~device ~style dtype g),
        outcome (fun () -> Accel.Dse.run ~device ~style dtype g) )
    with
    | Ok want, Ok got ->
      let open Accel.Dse in
      Alcotest.(check bool) (label ^ ": config") true (want.config = got.config);
      Alcotest.(check bool) (label ^ ": resources") true
        (want.resources = got.resources);
      Alcotest.(check int64) (label ^ ": latency bits")
        (Int64.bits_of_float want.umm_latency)
        (Int64.bits_of_float got.umm_latency);
      (* The table's two consumers agree: profiles rebuilt on the chosen
         design sum to the sweep's total. *)
      Alcotest.(check int64) (label ^ ": profiles agree")
        (Int64.bits_of_float got.umm_latency)
        (Int64.bits_of_float
           (Latency.umm_total (Latency.profile_graph got.config g)))
    | Error want, Error got -> Alcotest.(check string) (label ^ ": error") want got
    | Ok _, Error m -> Alcotest.failf "%s: sweep raised %s" label m
    | Error m, Ok _ -> Alcotest.failf "%s: reference raised %s" label m
  in
  let dtypes = [ Dtype.I8; Dtype.I16; Dtype.F32 ] in
  let styles = [ Config.Umm; Config.Lcmm ] in
  let each_design label ~devices g =
    List.iter
      (fun device ->
        List.iter
          (fun dtype ->
            List.iter
              (fun style ->
                check_case
                  (Printf.sprintf "%s %s %s %s" label device.Fpga.Device.device_name
                     (Dtype.to_string dtype)
                     (match style with Config.Umm -> "umm" | Config.Lcmm -> "lcmm"))
                  ~device ~style dtype g)
              styles)
          dtypes)
      devices
  in
  (* The smaller parts exercise the fits filter. *)
  List.iter
    (fun e ->
      each_design e.Models.Zoo.model_name
        ~devices:Fpga.Device.[ vu9p; zu9eg; u250 ]
        (e.Models.Zoo.build ()))
    Models.Zoo.all;
  List.iter
    (fun family ->
      List.iter
        (fun nodes ->
          let st = Random.State.make [| 19; nodes |] in
          each_design
            (Printf.sprintf "%s-%d" (Check.Gen.family_name family) nodes)
            ~devices:[ Fpga.Device.vu9p ]
            (Check.Gen.sized_graph ~family st ~nodes))
        (match family with Check.Gen.Skip -> [ 48; 160 ] | _ -> [ 64; 400 ]))
    Check.Gen.families

let test_fused_eltwise () =
  let g = Helpers.diamond () in
  let plain = Config.make ~style:Config.Umm Dtype.I16 in
  let fused = Config.make ~fused_eltwise:true ~style:Config.Umm Dtype.I16 in
  (* Node 3 (body2) feeds only the add at node 4: fused, its write-back
     disappears and the add no longer reads it. *)
  let p_plain = Latency.profile_graph plain g in
  let p_fused = Latency.profile_graph fused g in
  Alcotest.(check bool) "producer of-term removed" true
    (p_fused.(3).Latency.of_term = 0. && p_plain.(3).Latency.of_term > 0.);
  Alcotest.(check int) "add loses one input stream"
    (Array.length p_plain.(4).Latency.if_values - 1)
    (Array.length p_fused.(4).Latency.if_values);
  (* The shortcut input (node 1, consumed by the add too) still streams:
     it has another consumer ordering (not the immediately preceding
     node). *)
  Alcotest.(check bool) "shortcut still streams" true
    (Array.mem 1 p_fused.(4).Latency.if_values);
  Alcotest.(check bool) "fusion only helps" true
    (Latency.umm_total p_fused <= Latency.umm_total p_plain +. 1e-15)

let prop_umm_upper_bound =
  Helpers.qtest ~count:30 "umm latency bounds any allocation"
    Helpers.random_graph_gen (fun g ->
      let cfg = Config.make ~style:Config.Umm Dtype.I16 in
      let profiles = Latency.profile_graph cfg g in
      let umm = Latency.umm_total profiles in
      let m = Lcmm.Metric.build g profiles in
      let all_on = Lcmm.Metric.total_latency_on m (all_on_mark m) in
      all_on <= umm +. 1e-12)

let suite =
  [ Alcotest.test_case "pe basics" `Quick test_pe_basics;
    Alcotest.test_case "pe cycles" `Quick test_pe_cycles;
    Alcotest.test_case "pe default_for" `Quick test_pe_default_for;
    Alcotest.test_case "tiling trips" `Quick test_tiling_trips;
    Alcotest.test_case "tiling transactions" `Quick test_tiling_transactions;
    Alcotest.test_case "tiling buffers" `Quick test_tiling_buffers;
    Alcotest.test_case "config" `Quick test_config;
    Alcotest.test_case "latency profiles" `Quick test_latency_profiles;
    Alcotest.test_case "eq1 semantics" `Quick test_eq1_semantics;
    Alcotest.test_case "memory bound count" `Quick test_memory_bound_count;
    Alcotest.test_case "roofline" `Quick test_roofline;
    Alcotest.test_case "dse" `Quick test_dse;
    Alcotest.test_case "dse sweep bit-exact" `Quick test_dse_bit_exact;
    Alcotest.test_case "fused eltwise" `Quick test_fused_eltwise;
    prop_umm_upper_bound ]
