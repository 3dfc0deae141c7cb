(* Tests for the tensor substrate: Dtype and Shape. *)

module Dtype = Tensor.Dtype
module Shape = Tensor.Shape

let check = Alcotest.check

let test_dtype_sizes () =
  check Alcotest.int "i8 bytes" 1 (Dtype.bytes Dtype.I8);
  check Alcotest.int "i16 bytes" 2 (Dtype.bytes Dtype.I16);
  check Alcotest.int "f32 bytes" 4 (Dtype.bytes Dtype.F32)

let test_dtype_dsp_cost () =
  check (Alcotest.float 1e-9) "i8 packs two per dsp" 0.5 (Dtype.dsp_cost_per_mac Dtype.I8);
  check (Alcotest.float 1e-9) "i16 one per dsp" 1.0 (Dtype.dsp_cost_per_mac Dtype.I16);
  Alcotest.(check bool) "f32 costs more than fixed" true
    (Dtype.dsp_cost_per_mac Dtype.F32 > Dtype.dsp_cost_per_mac Dtype.I16)

let test_dtype_strings () =
  List.iter
    (fun d ->
      check
        (Alcotest.option (Alcotest.testable Dtype.pp Dtype.equal))
        "roundtrip" (Some d)
        (Dtype.of_string (Dtype.to_string d)))
    Dtype.all;
  check (Alcotest.option (Alcotest.testable Dtype.pp Dtype.equal)) "alias fp32"
    (Some Dtype.F32) (Dtype.of_string "FP32");
  check (Alcotest.option (Alcotest.testable Dtype.pp Dtype.equal)) "unknown"
    None (Dtype.of_string "i4")

let test_shape_elements () =
  check Alcotest.int "feature" (64 * 56 * 56)
    (Shape.elements (Shape.feature ~channels:64 ~height:56 ~width:56));
  check Alcotest.int "filter" (256 * 64 * 9)
    (Shape.elements
       (Shape.filter ~out_channels:256 ~in_channels:64 ~kernel_h:3 ~kernel_w:3));
  check Alcotest.int "vector" 1000 (Shape.elements (Shape.vector 1000))

let test_shape_bytes () =
  let f = Shape.feature ~channels:3 ~height:2 ~width:2 in
  check Alcotest.int "i8" 12 (Shape.size_bytes Dtype.I8 f);
  check Alcotest.int "i16" 24 (Shape.size_bytes Dtype.I16 f);
  check Alcotest.int "f32" 48 (Shape.size_bytes Dtype.F32 f)

let test_shape_validation () =
  Alcotest.check_raises "zero channel" (Invalid_argument "Shape: channels must be positive, got 0")
    (fun () -> ignore (Shape.feature ~channels:0 ~height:1 ~width:1));
  Alcotest.check_raises "negative vector" (Invalid_argument "Shape: length must be positive, got -3")
    (fun () -> ignore (Shape.vector (-3)))

let test_shape_accessors () =
  let f = Shape.feature ~channels:4 ~height:5 ~width:6 in
  (match Shape.as_feature f with
  | Some x ->
    check Alcotest.int "channels" 4 x.Shape.channels;
    check Alcotest.int "height" 5 x.Shape.height
  | None -> Alcotest.fail "expected feature");
  check Alcotest.bool "filter is not feature" true (Shape.as_feature (Shape.vector 3) = None);
  check Alcotest.string "pp feature" "4x5x6" (Shape.to_string f);
  check Alcotest.string "pp vector" "[7]" (Shape.to_string (Shape.vector 7))

let prop_shape_positive =
  Helpers.qtest "elements always positive"
    QCheck2.Gen.(triple (int_range 1 64) (int_range 1 64) (int_range 1 64))
    (fun (c, h, w) -> Shape.elements (Shape.feature ~channels:c ~height:h ~width:w) > 0)

let prop_bytes_monotone =
  Helpers.qtest "size grows with precision"
    QCheck2.Gen.(triple (int_range 1 64) (int_range 1 64) (int_range 1 64))
    (fun (c, h, w) ->
      let f = Shape.feature ~channels:c ~height:h ~width:w in
      Shape.size_bytes Dtype.I8 f < Shape.size_bytes Dtype.I16 f
      && Shape.size_bytes Dtype.I16 f < Shape.size_bytes Dtype.F32 f)

let suite =
  [ Alcotest.test_case "dtype sizes" `Quick test_dtype_sizes;
    Alcotest.test_case "dtype dsp cost" `Quick test_dtype_dsp_cost;
    Alcotest.test_case "dtype strings" `Quick test_dtype_strings;
    Alcotest.test_case "shape elements" `Quick test_shape_elements;
    Alcotest.test_case "shape bytes" `Quick test_shape_bytes;
    Alcotest.test_case "shape validation" `Quick test_shape_validation;
    Alcotest.test_case "shape accessors" `Quick test_shape_accessors;
    prop_shape_positive;
    prop_bytes_monotone ]
