(* Resource vectors and device descriptors. *)

module R = Fpga.Resource
module D = Fpga.Device

let test_arithmetic () =
  let a = R.make ~dsp:10 ~bram36:5 ~uram:2 ~luts:100 () in
  let b = R.make ~dsp:3 ~bram36:1 () in
  let s = R.add a b in
  Alcotest.(check int) "dsp" 13 s.R.dsp;
  Alcotest.(check int) "bram" 6 s.R.bram36;
  let t = R.scale 3 b in
  Alcotest.(check int) "scale" 9 t.R.dsp;
  Alcotest.check_raises "negative" (Invalid_argument "Resource.make: negative component")
    (fun () -> ignore (R.make ~dsp:(-1) ()))

let test_fits () =
  let small = R.make ~dsp:10 ~bram36:10 () in
  let big = R.make ~dsp:100 ~bram36:100 ~uram:10 ~luts:1000 () in
  Alcotest.(check bool) "fits" true (R.fits small ~within:big);
  Alcotest.(check bool) "does not fit" false (R.fits big ~within:small);
  Alcotest.(check bool) "zero fits anything" true (R.fits (R.make ()) ~within:(R.make ()))

let test_utilization () =
  let total = R.make ~dsp:100 ~bram36:50 ~uram:10 ~luts:1000 () in
  let used = R.make ~dsp:50 ~bram36:25 ~uram:5 ~luts:100 () in
  List.iter
    (fun (name, r) ->
      match name with
      | "dsp" | "bram" | "uram" -> Alcotest.(check (float 1e-9)) name 0.5 r
      | "luts" -> Alcotest.(check (float 1e-9)) name 0.1 r
      | other -> Alcotest.failf "unexpected component %s" other)
    (R.utilization used ~total);
  (* zero totals report zero, not a crash *)
  List.iter
    (fun (_, r) -> Alcotest.(check (float 1e-9)) "zero total" 0. r)
    (R.utilization used ~total:(R.make ()))

let test_sram_bytes () =
  Alcotest.(check int) "one of each" (R.bram36_bytes + R.uram_bytes)
    (R.sram_bytes (R.make ~bram36:1 ~uram:1 ()));
  (* VU9P lands near the paper's 40 MB device limit. *)
  let mb = float_of_int (D.sram_bytes D.vu9p) /. 1e6 in
  Alcotest.(check bool) "vu9p ~40MB" true (mb > 35. && mb < 45.)

let test_devices () =
  Alcotest.(check bool) "find vu9p" true (D.find "VU9P" <> None);
  Alcotest.(check bool) "find unknown" true (D.find "stratix" = None);
  Alcotest.(check int) "vu9p dsp" 6840 D.vu9p.D.total.R.dsp;
  (* Paper: 19.2 GB/s x 4 banks, one third per interface = 25.6 GB/s. *)
  Alcotest.(check (float 1e6)) "per interface" 25.6e9 (D.interface_bandwidth D.vu9p);
  Alcotest.(check bool) "zu9eg smaller" true
    (D.sram_bytes D.zu9eg < D.sram_bytes D.vu9p);
  Alcotest.(check bool) "u250 bigger" true
    (D.sram_bytes D.u250 > D.sram_bytes D.vu9p
    && D.u250.D.total.R.dsp > D.vu9p.D.total.R.dsp)

let prop_add_commutative =
  let gen =
    QCheck2.Gen.(
      pair
        (quad (int_range 0 100) (int_range 0 100) (int_range 0 100) (int_range 0 100))
        (quad (int_range 0 100) (int_range 0 100) (int_range 0 100) (int_range 0 100)))
  in
  Helpers.qtest "resource add commutes" gen
    (fun ((a1, a2, a3, a4), (b1, b2, b3, b4)) ->
      let a = R.make ~dsp:a1 ~bram36:a2 ~uram:a3 ~luts:a4 () in
      let b = R.make ~dsp:b1 ~bram36:b2 ~uram:b3 ~luts:b4 () in
      R.add a b = R.add b a)

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "fits" `Quick test_fits;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "sram bytes" `Quick test_sram_bytes;
    Alcotest.test_case "devices" `Quick test_devices;
    prop_add_commutative ]
