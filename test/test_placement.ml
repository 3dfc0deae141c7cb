(* Physical block placement of chosen buffers. *)

module Placement = Lcmm.Placement
module Vbuffer = Lcmm.Vbuffer
module Metric = Lcmm.Metric

let vb id bytes =
  Vbuffer.singleton ~vbuf_id:id (Metric.Feature_value id) ~size_bytes:bytes

(* Same bank and intersecting block ranges. *)
let overlaps a b =
  a.Placement.bank = b.Placement.bank
  && a.first_block < b.first_block + b.block_count
  && b.first_block < a.first_block + a.block_count

let test_basic_placement () =
  match
    Placement.place ~device:Fpga.Device.vu9p ~tile_bytes:(512 * 1024)
      [ vb 0 (64 * 1024); vb 1 (100 * 1024); vb 2 1 ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok map ->
    Alcotest.(check int) "three assignments" 3 (List.length map.Placement.assignments);
    (* 64K = 2 URAM blocks, 100K = 4, 1B = 1: 7 total, largest first. *)
    Alcotest.(check int) "uram used" 7 map.Placement.uram_blocks_used;
    (* Tile buffers: 512K / 4K = 128 BRAM blocks. *)
    Alcotest.(check int) "bram used by tiles" 128 map.Placement.bram_blocks_used;
    (* No two regions overlap. *)
    let regions = List.map (fun a -> a.Placement.region) map.Placement.assignments in
    let rec pairs = function
      | [] -> ()
      | r :: rest ->
        List.iter
          (fun r' ->
            Alcotest.(check bool) "disjoint" false (overlaps r r'))
          rest;
        pairs rest
    in
    pairs regions

let test_uram_overflow_to_bram () =
  (* A device with 2 URAM blocks: the second large buffer lands in BRAM. *)
  let device =
    { Fpga.Device.vu9p with
      Fpga.Device.total = Fpga.Resource.make ~dsp:100 ~bram36:100 ~uram:2 ~luts:1000 () }
  in
  match
    Placement.place ~device ~tile_bytes:0
      [ vb 0 (2 * 32 * 1024); vb 1 (32 * 1024) ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok map ->
    let banks =
      List.map (fun a -> a.Placement.region.Placement.bank) map.Placement.assignments
    in
    Alcotest.(check bool) "one in each bank" true
      (List.mem Placement.Uram banks && List.mem Placement.Bram banks);
    Alcotest.(check int) "bram blocks for 32K" (32 * 1024 / 4096)
      map.Placement.bram_blocks_used

let test_placement_failure () =
  let device =
    { Fpga.Device.vu9p with
      Fpga.Device.total = Fpga.Resource.make ~dsp:100 ~bram36:4 ~uram:1 ~luts:1000 () }
  in
  (match Placement.place ~device ~tile_bytes:0 [ vb 0 (10 * 1024 * 1024) ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected overflow");
  match Placement.place ~device ~tile_bytes:(1024 * 1024) [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected tile overflow"

let test_place_real_plan () =
  let g = Models.Zoo.build "googlenet" in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let plan = Lcmm.Framework.plan cfg g in
  let tile_bytes = Accel.Tiling.buffer_bytes Tensor.Dtype.I16 cfg.Accel.Config.tile in
  match
    Placement.place ~device:Fpga.Device.vu9p ~tile_bytes
      plan.Lcmm.Framework.allocation.Lcmm.Dnnk.chosen
  with
  | Error msg -> Alcotest.fail msg
  | Ok map ->
    Alcotest.(check int) "every chosen buffer placed"
      (List.length plan.Lcmm.Framework.allocation.Lcmm.Dnnk.chosen)
      (List.length map.Placement.assignments);
    Alcotest.(check bool) "within device" true
      (map.Placement.uram_blocks_used
       <= Fpga.Device.vu9p.Fpga.Device.total.Fpga.Resource.uram
      && map.Placement.bram_blocks_used
         <= Fpga.Device.vu9p.Fpga.Device.total.Fpga.Resource.bram36)

let prop_no_overlap =
  Helpers.qtest ~count:50 "placements never overlap"
    QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 (512 * 1024)))
    (fun sizes ->
      let vbufs = List.mapi vb sizes in
      match Placement.place ~device:Fpga.Device.vu9p ~tile_bytes:65536 vbufs with
      | Error _ -> true  (* refusing is sound *)
      | Ok map ->
        let regions = List.map (fun a -> a.Placement.region) map.Placement.assignments in
        let rec check = function
          | [] -> true
          | r :: rest -> List.for_all (fun r' -> not (overlaps r r')) rest && check rest
        in
        check regions)

let suite =
  [ Alcotest.test_case "basic placement" `Quick test_basic_placement;
    Alcotest.test_case "uram overflow to bram" `Quick test_uram_overflow_to_bram;
    Alcotest.test_case "placement failure" `Quick test_placement_failure;
    Alcotest.test_case "place real plan" `Quick test_place_real_plan;
    prop_no_overlap ]
