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
  let table = Latency.table dtype ~fused_eltwise:false g in
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
      Some { Accel.Dse.config = cfg; umm_latency; resources; table }
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

(* Two profiles equal field by field, floats bit for bit. *)
let same_profile (a : Latency.profile) (b : Latency.profile) =
  let bits = Int64.bits_of_float in
  let same_floats x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun u v -> bits u = bits v) x y
  in
  a.Latency.node_id = b.Latency.node_id
  && bits a.Latency.latc = bits b.Latency.latc
  && a.Latency.if_values = b.Latency.if_values
  && same_floats a.Latency.if_secs b.Latency.if_secs
  && a.Latency.if_bytes = b.Latency.if_bytes
  && bits a.Latency.wt_term = bits b.Latency.wt_term
  && bits a.Latency.wt_load_once = bits b.Latency.wt_load_once
  && bits a.Latency.of_term = bits b.Latency.of_term
  && a.Latency.of_value = b.Latency.of_value
  && a.Latency.wt_stream_bytes = b.Latency.wt_stream_bytes
  && a.Latency.wt_once_bytes = b.Latency.wt_once_bytes
  && a.Latency.of_stream_bytes = b.Latency.of_stream_bytes

let test_dse_bit_exact () =
  let outcome f = match f () with r -> Ok r | exception Invalid_argument m -> Error m in
  let check_outcome label g want got =
    match (want, got) with
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
      let from_graph = Latency.profile_graph got.config g in
      Alcotest.(check int64) (label ^ ": profiles agree")
        (Int64.bits_of_float got.umm_latency)
        (Int64.bits_of_float (Latency.umm_total from_graph));
      (* The table the sweep returns is the graph's: the profiles built
         from it are the ones a fresh compile builds. *)
      Alcotest.(check bool) (label ^ ": shared table exact") true
        (Array.for_all2 same_profile
           (Latency.profiles got.config got.table)
           from_graph)
    | Error want, Error got -> Alcotest.(check string) (label ^ ": error") want got
    | Ok _, Error m -> Alcotest.failf "%s: sweep raised %s" label m
    | Error m, Ok _ -> Alcotest.failf "%s: reference raised %s" label m
  in
  (* Each style's one-style sweep and its field of the both-styles sweep
     match the per-point reference. *)
  let check_case label ~device dtype g =
    let both = outcome (fun () -> Accel.Dse.run_both ~device dtype g) in
    List.iter
      (fun (style, name, field) ->
        let label = Printf.sprintf "%s %s" label name in
        let want = outcome (fun () -> reference_dse ~device ~style dtype g) in
        check_outcome label g want
          (outcome (fun () -> Accel.Dse.run ~device ~style dtype g));
        check_outcome (label ^ " (both)") g want (Result.map field both))
      [ (Config.Umm, "umm", fun (d : Accel.Dse.designs) -> d.Accel.Dse.umm);
        (Config.Lcmm, "lcmm", fun d -> d.Accel.Dse.lcmm) ]
  in
  let dtypes = [ Dtype.I8; Dtype.I16; Dtype.F32 ] in
  let each_design label ~devices g =
    List.iter
      (fun device ->
        List.iter
          (fun dtype ->
            check_case
              (Printf.sprintf "%s %s %s" label device.Fpga.Device.device_name
                 (Dtype.to_string dtype))
              ~device dtype g)
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
    Check.Gen.families;
  (* Long source lists: the quotients the streaming sweep shares per
     (tm, th, tw) group. *)
  check_case "skip-512 vu9p i16" ~device:Fpga.Device.vu9p Dtype.I16
    (Check.Gen.sized_graph ~family:Check.Gen.Skip
       (Random.State.make [| 2026; 512 |]) ~nodes:512)

let test_profiles_refuse_other_table () =
  let g = Helpers.diamond () in
  let cfg = Config.make ~style:Config.Lcmm Dtype.I16 in
  List.iter
    (fun (label, dtype, fused_eltwise) ->
      Alcotest.check_raises label
        (Invalid_argument
           "Latency: table compiled for another dtype or fusion setting")
        (fun () ->
          ignore (Latency.profiles cfg (Latency.table dtype ~fused_eltwise g))))
    [ ("other dtype", Dtype.I8, false);
      ("other fusion setting", Dtype.I16, true) ]

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

(* The sweep kernel against the per-node profiles, on tiles off the DSE
   grid too: sizes from 1 to 128 (many larger than the maps), several per
   sweep, both fusion settings.  Most dimensions come from a short list,
   so tiles of one sweep often share some of them and with them a group's
   quotients. *)
let prop_sweep_matches_profiles =
  let dim =
    QCheck2.Gen.(
      frequency
        [ (1, int_range 1 128);
          (3, oneofl [ 1; 3; 7; 8; 14; 16; 28; 64; 128 ]) ])
  in
  let tile_gen =
    QCheck2.Gen.(
      map
        (fun (tm, tn, th, tw) -> Tiling.make ~tm ~tn ~th ~tw)
        (quad dim dim dim dim))
  in
  Helpers.qtest ~count:60 "sweep kernel matches profiles"
    QCheck2.Gen.(
      quad (int_range 0 1_000_000) (int_range 1 40) bool
        (list_size (int_range 1 10) tile_gen))
    (fun (seed, max_nodes, fused_eltwise, tiles) ->
      let g = Check.Gen.graph (Random.State.make [| seed |]) ~max_nodes in
      let cfgs =
        Array.map
          (fun style -> Config.make ~fused_eltwise ~style Dtype.I16)
          [| Config.Lcmm; Config.Umm |]
      in
      let table = Latency.table Dtype.I16 ~fused_eltwise g in
      let compute =
        Array.map (fun cfg -> Latency.compute_times cfg table) cfgs
      in
      let rows = Latency.streaming_times cfgs.(0) table (Array.of_list tiles) in
      let bits = Int64.bits_of_float in
      List.for_all2
        (fun tile streaming ->
          let profiles k =
            Latency.profile_graph { cfgs.(k) with Config.tile } g
          in
          let totals ?(compute = compute) bounds =
            let t = Array.make (Array.length bounds) nan in
            Latency.umm_totals_until ~bounds ~compute ~streaming t;
            t
          in
          let exact = totals [| infinity; infinity |] in
          let want = Array.init 2 (fun k -> Latency.umm_total (profiles k)) in
          let past bound total = total > bound || bound = 0. in
          bits exact.(0) = bits want.(0)
          && bits exact.(1) = bits want.(1)
          && Array.for_all2
               (fun p s ->
                 bits (Latency.umm_node_latency p)
                 = bits (Float.max p.Latency.latc s))
               (profiles 0) streaming
          (* One design alone sums as it does beside the other.  Bounds
             the totals reach run the whole fold; half of one keeps the
             other exact, and half of both stops the fold past both. *)
          && bits (totals ~compute:[| compute.(1) |] [| infinity |]).(0)
             = bits exact.(1)
          && Array.for_all2 (fun a b -> bits a = bits b) (totals exact) exact
          && (let t = totals [| exact.(0); exact.(1) *. 0.5 |] in
              bits t.(0) = bits exact.(0) && past (exact.(1) *. 0.5) t.(1))
          && (let half = Array.map (fun x -> x *. 0.5) exact in
              let t = totals half in
              past half.(0) t.(0) && past half.(1) t.(1)))
        tiles (Array.to_list rows))

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
    Alcotest.test_case "profiles refuse another table" `Quick
      test_profiles_refuse_other_table;
    Alcotest.test_case "fused eltwise" `Quick test_fused_eltwise;
    prop_umm_upper_bound;
    prop_sweep_matches_profiles ]
