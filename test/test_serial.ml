(* JSON and graph (de)serialization. *)

module Json = Dnn_serial.Json
module Codec = Dnn_serial.Codec
module Wire = Dnn_serial.Wire
module G = Dnn_graph.Graph

let json_t = Alcotest.testable Json.pp Json.equal

let parse_exn s =
  match Json.of_string s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_values () =
  Alcotest.check json_t "int" (Json.Int 42) (parse_exn "42");
  Alcotest.check json_t "negative" (Json.Int (-7)) (parse_exn "-7");
  Alcotest.check json_t "float" (Json.Float 2.5) (parse_exn "2.5");
  Alcotest.check json_t "bool" (Json.Bool true) (parse_exn "true");
  Alcotest.check json_t "null" Json.Null (parse_exn "null");
  Alcotest.check json_t "string" (Json.String "hi") (parse_exn "\"hi\"");
  Alcotest.check json_t "escapes" (Json.String "a\"b\n") (parse_exn "\"a\\\"b\\n\"");
  Alcotest.check json_t "empty array" (Json.List []) (parse_exn "[]");
  Alcotest.check json_t "array" (Json.List [ Json.Int 1; Json.Int 2 ]) (parse_exn "[1, 2]");
  Alcotest.check json_t "object"
    (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Null ]) ])
    (parse_exn "{\"a\": 1, \"b\": [null]}")

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | Ok v -> Alcotest.failf "expected error for %S, got %s" s (Json.to_string v)
    | Error _ -> ()
  in
  bad "";
  bad "[1, 2";
  bad "{\"a\": }";
  bad "trailing 1 2";
  bad "\"unterminated";
  bad "{1: 2}";
  bad "nul"

let test_json_roundtrip_compact_and_pretty () =
  let v =
    Json.Obj
      [ ("name", Json.String "x\"y");
        ("xs", Json.List [ Json.Int 1; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("f", Json.Float 1.5) ]) ]
  in
  Alcotest.check json_t "compact" v (parse_exn (Json.to_string v));
  Alcotest.check json_t "pretty" v (parse_exn (Json.to_string ~indent:2 v))

let test_json_accessors () =
  let v = parse_exn "{\"a\": 3, \"b\": \"s\", \"c\": [1]}" in
  Alcotest.(check (result int string)) "member int" (Ok 3)
    (Result.bind (Json.member "a" v) Json.to_int);
  Alcotest.(check bool) "missing member" true
    (Result.is_error (Json.member "zz" v));
  Alcotest.(check bool) "member_opt" true (Json.member_opt "b" v <> None);
  Alcotest.(check bool) "to_int of string fails" true
    (Result.is_error (Result.bind (Json.member "b" v) Json.to_int))

let test_json_numeric_and_bool_accessors () =
  Alcotest.(check (result (float 0.) string)) "to_float of float" (Ok 2.5)
    (Json.to_float (Json.Float 2.5));
  Alcotest.(check (result (float 0.) string)) "to_float widens ints" (Ok 3.)
    (Json.to_float (Json.Int 3));
  Alcotest.(check bool) "to_float of string fails" true
    (Result.is_error (Json.to_float (Json.String "2.5")));
  Alcotest.(check (result bool string)) "to_bool" (Ok true)
    (Json.to_bool (Json.Bool true));
  Alcotest.(check bool) "to_bool of int fails" true
    (Result.is_error (Json.to_bool (Json.Int 1)))

let rec gen_json depth =
  let open QCheck2.Gen in
  if depth = 0 then
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
        (* Finite floats only: the printer uses %.17g (or %.1f for
           integer-valued ones), both of which parse back exactly. *)
        map (fun f -> Json.Float f) (float_range (-1e12) 1e12);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12)) ]
  else
    oneof
      [ gen_json 0;
        map (fun l -> Json.List l) (list_size (int_range 0 4) (gen_json (depth - 1)));
        map
          (fun kvs ->
            (* Duplicate keys make round-trips ambiguous: dedup. *)
            let seen = Hashtbl.create 8 in
            Json.Obj
              (List.filter
                 (fun (k, _) ->
                   if Hashtbl.mem seen k then false
                   else begin
                     Hashtbl.add seen k ();
                     true
                   end)
                 kvs))
          (list_size (int_range 0 4)
             (pair (string_size ~gen:printable (int_range 1 8)) (gen_json (depth - 1)))) ]

let prop_json_roundtrip =
  Helpers.qtest ~count:200 "print/parse round-trip" (gen_json 3) (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error _ -> false)

(* --- graph codec --- *)

let graphs_equal a b =
  G.node_count a = G.node_count b
  && List.for_all2
       (fun x y ->
         x.G.id = y.G.id && x.G.node_name = y.G.node_name && x.G.op = y.G.op
         && x.G.preds = y.G.preds && x.G.block = y.G.block)
       (G.nodes a) (G.nodes b)

let test_graph_roundtrip_fixtures () =
  List.iter
    (fun g ->
      match Codec.of_string (Codec.to_string g) with
      | Ok g' -> Alcotest.(check bool) "round-trip" true (graphs_equal g g')
      | Error msg -> Alcotest.fail msg)
    [ Helpers.chain (); Helpers.diamond (); Helpers.inception_snippet () ]

let test_graph_roundtrip_zoo () =
  List.iter
    (fun e ->
      let g = e.Models.Zoo.build () in
      match Codec.of_string (Codec.to_string ~pretty:false g) with
      | Ok g' ->
        Alcotest.(check bool) (e.Models.Zoo.model_name ^ " round-trip") true
          (graphs_equal g g')
      | Error msg -> Alcotest.failf "%s: %s" e.Models.Zoo.model_name msg)
    Models.Zoo.all

let test_codec_rejects_garbage () =
  let bad s =
    match Codec.of_string s with
    | Ok _ -> Alcotest.failf "expected rejection for %S" s
    | Error _ -> ()
  in
  bad "{}";
  bad "{\"format\": \"other\", \"version\": 1, \"nodes\": []}";
  bad "{\"format\": \"lcmm-graph\", \"version\": 99, \"nodes\": []}";
  (* Structurally broken graph: predecessor after user. *)
  bad
    {|{"format": "lcmm-graph", "version": 1, "nodes": [
       {"id": 0, "name": "in", "op": {"kind": "input", "channels": 1, "height": 4, "width": 4}, "preds": [0]}]}|}

let test_codec_file_io () =
  let g = Helpers.diamond () in
  let path = Filename.temp_file "lcmm" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write_file ~path g;
      match Codec.read_file ~path with
      | Ok g' -> Alcotest.(check bool) "file round-trip" true (graphs_equal g g')
      | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Codec.read_file ~path:"/nonexistent/x.json"))

(* --- wire envelopes --- *)

let test_wire_envelopes () =
  Alcotest.(check string) "ok envelope, fixed field order"
    {|{"id":7,"op":"compile","ok":true,"cache":"hit","result":{"x":1}}|}
    (Json.to_string
       (Wire.ok ~id:(Json.Int 7) ~op:"compile" ~cache:"hit"
          (Json.Obj [ ("x", Json.Int 1) ])));
  Alcotest.(check string) "minimal ok" {|{"op":"stats","ok":true,"result":null}|}
    (Json.to_string (Wire.ok ~op:"stats" Json.Null));
  Alcotest.(check string) "error envelope"
    {|{"op":"compile","ok":false,"error":"no such model"}|}
    (Json.to_string (Wire.error ~op:"compile" "no such model"));
  let line = Wire.to_line (Wire.ok ~op:"models" (Json.List [])) in
  Alcotest.(check bool) "to_line is one newline-terminated record" true
    (String.length line > 0
    && line.[String.length line - 1] = '\n'
    && not (String.contains (String.sub line 0 (String.length line - 1)) '\n'))

let show_request = function
  | `Line l -> "line " ^ l
  | `Too_long msg -> "too long: " ^ msg
  | `Eof -> "eof"
  | `Broken msg -> "broken: " ^ msg

let test_wire_read_request () =
  let path = Filename.temp_file "lcmm_wire" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"op\":\"stats\"}\n\n   \n{\"op\":\"models\"}\n";
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check string) "first line" {|line {"op":"stats"}|}
            (show_request (Wire.read_request ic));
          Alcotest.(check string) "blank lines skipped" {|line {"op":"models"}|}
            (show_request (Wire.read_request ic));
          Alcotest.(check string) "eof" "eof"
            (show_request (Wire.read_request ic))))

(* A peer dying mid-write leaves a line without its newline.  That must
   surface as a structured framing error — never as an EOF (which would
   silently drop the partial record) and never as a line handed to the
   JSON parser. *)
let with_content content fn =
  let path = Filename.temp_file "lcmm_wire" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> fn ic))

let test_wire_read_request_truncated () =
  with_content "{\"op\":\"stats\"}\n{\"op\":\"mod" (fun ic ->
      Alcotest.(check string) "complete line still delivered"
        {|line {"op":"stats"}|}
        (show_request (Wire.read_request ic));
      match Wire.read_request ic with
      | `Broken msg ->
        Alcotest.(check bool)
          (Printf.sprintf "names the truncation: %s" msg)
          true
          (String.starts_with ~prefix:"connection closed mid-line" msg)
      | r -> Alcotest.failf "expected a framing error, got %s" (show_request r))

(* A line one byte past the 8 MiB bound is skipped to its newline and
   refused; a line at the bound and the lines after both still read. *)
let test_wire_read_request_oversized () =
  let bound = 8 * 1024 * 1024 in
  with_content
    (String.make bound 'a' ^ "\n" ^ String.make (bound + 1) 'b'
   ^ "\n{\"op\":\"stats\"}\n")
    (fun ic ->
      (match Wire.read_request ic with
      | `Line l ->
        Alcotest.(check int) "a line at the bound is read" bound
          (String.length l)
      | r ->
        Alcotest.failf "expected the line at the bound, got %s"
          (show_request r));
      Alcotest.(check string) "one byte past the bound is refused"
        "too long: request exceeds 8388608 bytes"
        (show_request (Wire.read_request ic));
      Alcotest.(check string) "the next line still reads"
        {|line {"op":"stats"}|}
        (show_request (Wire.read_request ic));
      Alcotest.(check string) "then eof" "eof"
        (show_request (Wire.read_request ic)))

let test_wire_read_reply_eof () =
  with_content "" (fun ic ->
      match Wire.read_reply ic with
      | Error msg ->
        Alcotest.(check string) "clean EOF before any reply"
          "connection closed before reply" msg
      | Ok l -> Alcotest.failf "expected an error, got %s" l);
  with_content "{\"ok\":tru" (fun ic ->
      match Wire.read_reply ic with
      | Error msg ->
        Alcotest.(check bool) "mid-line EOF named" true
          (String.starts_with ~prefix:"connection closed mid-line" msg)
      | Ok l -> Alcotest.failf "expected an error, got %s" l);
  with_content "{\"ok\":true}\n" (fun ic ->
      Alcotest.(check (result string string)) "whole line delivered"
        (Ok {|{"ok":true}|}) (Wire.read_reply ic))

(* --- content digests --- *)

let test_codec_digest () =
  let d1 = Codec.digest (Helpers.chain ()) in
  Alcotest.(check string) "digest is deterministic" d1
    (Codec.digest (Helpers.chain ()));
  Alcotest.(check int) "hex md5 width" 32 (String.length d1);
  Alcotest.(check bool) "distinct graphs, distinct digests" true
    (d1 <> Codec.digest (Helpers.diamond ()))

let prop_random_graph_roundtrip =
  Helpers.qtest ~count:40 "random graphs round-trip" Helpers.random_graph_gen
    (fun g ->
      match Codec.of_string (Codec.to_string g) with
      | Ok g' -> graphs_equal g g'
      | Error _ -> false)

let suite =
  [ Alcotest.test_case "json values" `Quick test_json_values;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json compact/pretty" `Quick test_json_roundtrip_compact_and_pretty;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "json numeric/bool accessors" `Quick
      test_json_numeric_and_bool_accessors;
    prop_json_roundtrip;
    Alcotest.test_case "wire envelopes" `Quick test_wire_envelopes;
    Alcotest.test_case "wire read_request" `Quick test_wire_read_request;
    Alcotest.test_case "wire read_request truncated mid-line" `Quick
      test_wire_read_request_truncated;
    Alcotest.test_case "wire read_request refuses an oversized line" `Quick
      test_wire_read_request_oversized;
    Alcotest.test_case "wire read_reply EOF and truncation" `Quick
      test_wire_read_reply_eof;
    Alcotest.test_case "codec digest" `Quick test_codec_digest;
    Alcotest.test_case "graph round-trip fixtures" `Quick test_graph_roundtrip_fixtures;
    Alcotest.test_case "graph round-trip zoo" `Quick test_graph_roundtrip_zoo;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "codec file io" `Quick test_codec_file_io;
    prop_random_graph_roundtrip ]
