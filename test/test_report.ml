(* Report rendering and CSV export. *)

module F = Lcmm.Framework
module Report = Lcmm.Report

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

let comparison () =
  let g = Models.Zoo.build "googlenet" in
  (g, F.compare_designs ~model:"googlenet" Tensor.Dtype.I16 g)

let test_comparison_row () =
  let _, c = comparison () in
  let row = Report.comparison_row c in
  Alcotest.(check bool) "mentions model" true (contains row "googlenet");
  Alcotest.(check bool) "mentions precision" true (contains row "i16");
  (* Header and row align on column count (split on runs of spaces). *)
  let fields s =
    String.split_on_char ' ' s |> List.filter (fun f -> f <> "")
  in
  Alcotest.(check int) "aligned columns"
    (List.length (fields Report.comparison_header))
    (List.length (fields row))

let test_csv_comparisons () =
  let _, c = comparison () in
  let csv = Report.csv_of_comparisons [ c; c ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + two rows" 3 (List.length lines);
  (match lines with
  | header :: rows ->
    let cols s = List.length (String.split_on_char ',' s) in
    Alcotest.(check int) "header cols" 10 (cols header);
    List.iter (fun r -> Alcotest.(check int) "row cols" 10 (cols r)) rows
  | [] -> Alcotest.fail "empty csv")

let test_csv_design_points () =
  let p =
    { Lcmm.Design_space.mask = 5; sram_bytes = 1024; latency = 0.001; tops = 2.5 }
  in
  let csv = Report.csv_of_design_points [ p ] in
  Alcotest.(check bool) "has header" true (contains csv "mask,sram_bytes");
  Alcotest.(check bool) "has row" true (contains csv "5,1024,1.000000,2.500000")

let test_write_text_file () =
  let path = Filename.temp_file "lcmm" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.write_text_file ~path "a,b\n1,2\n";
      let ic = open_in path in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "round-trips" "a,b\n1,2\n" content)

let suite =
  [ Alcotest.test_case "comparison row" `Quick test_comparison_row;
    Alcotest.test_case "csv comparisons" `Quick test_csv_comparisons;
    Alcotest.test_case "csv design points" `Quick test_csv_design_points;
    Alcotest.test_case "write text file" `Quick test_write_text_file ]
