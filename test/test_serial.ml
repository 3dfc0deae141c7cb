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

let plain_leaf =
  let open QCheck2.Gen in
  oneof
    [ return Json.Null;
      map (fun b -> Json.Bool b) bool;
      map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
      (* Finite floats only: the printer uses %.17g (or %.1f for
         integer-valued ones), both of which parse back exactly. *)
      map (fun f -> Json.Float f) (float_range (-1e12) 1e12);
      map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12)) ]

let rec gen_json_of leaf depth =
  let open QCheck2.Gen in
  if depth = 0 then leaf
  else
    oneof
      [ leaf;
        map (fun l -> Json.List l) (list_size (int_range 0 4) (gen_json_of leaf (depth - 1)));
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
             (pair (string_size ~gen:printable (int_range 1 8)) (gen_json_of leaf (depth - 1)))) ]

let gen_json = gen_json_of plain_leaf

let prop_json_roundtrip =
  Helpers.qtest ~count:200 "print/parse round-trip" (gen_json 3) (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error _ -> false)

(* Leaves whose rendering does not parse back to the same tree:
   integer-valued floats from 1e15 up render as integers and parse as
   [Int]; strings and keys carry quotes, backslashes, control bytes and
   bytes past 0x7f, which render escaped or raw. *)
let raw_leaf =
  let open QCheck2.Gen in
  let awkward = string_size ~gen:char (int_range 0 10) in
  oneof
    [ plain_leaf;
      map (fun k -> Json.Float (float_of_int k *. 1e15)) (int_range (-4000) 4000);
      oneofl
        (List.map
           (fun f -> Json.Float f)
           [ -0.0; 0.0; 1e15; -1e15; 999999999999999.; 1e17; 1e300; 5e-324;
             4611686018427387904. ]);
      map (fun s -> Json.String s) awkward;
      map (fun (k, v) -> Json.Obj [ (k, v) ]) (pair awkward plain_leaf) ]

(* [Raw (compact v)] behaves as [v]: it renders the same bytes at every
   indent, alone and nested; the accessors read the same values (an
   integer-valued float from 1e15 up reads as an integer too, as its
   rendering parses); [equal] and the reply sum agree. *)
let prop_json_raw_laws =
  let render = Result.map (fun v -> Json.to_string v) in
  let renders = Result.map (List.map (fun v -> Json.to_string v)) in
  let law v =
    let r = Json.Raw (Json.compact v) in
    let same_int =
      match v with
      | Json.Float f when Float.is_integer f && Float.abs f >= 1e15 ->
        Json.to_int r = Ok (int_of_float f)
        || Json.to_int r = Json.to_int v
      | _ -> Json.to_int r = Json.to_int v
    in
    let keys =
      "absent" :: (match v with Json.Obj fields -> List.map fst fields | _ -> [])
    in
    List.for_all
      (fun indent ->
        Json.to_string ~indent r = Json.to_string ~indent v
        && Json.to_string ~indent (Json.List [ r; Json.Obj [ ("k", r) ] ])
           = Json.to_string ~indent (Json.List [ v; Json.Obj [ ("k", v) ] ]))
      [ 0; 2 ]
    && List.for_all
         (fun k ->
           render (Json.member k r) = render (Json.member k v)
           && Option.map Json.to_string (Json.member_opt k r)
              = Option.map Json.to_string (Json.member_opt k v))
         keys
    && same_int
    && Json.to_float r = Json.to_float v
    && Json.to_bool r = Json.to_bool v
    && Json.to_str r = Json.to_str v
    && renders (Json.to_list r) = renders (Json.to_list v)
    && Json.equal r v && Json.equal v r && Json.equal r r
    && Json.equal (Json.Obj [ ("k", r) ]) (Json.Obj [ ("k", v) ])
    && Wire.sum_of r = Wire.sum_of v
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"json raw laws"
       ~print:(fun v -> Json.to_string v)
       (gen_json_of raw_leaf 3) law)

(* JSON has no token for NaN or an infinity: they render as [null], so a
   rendering always parses. *)
let test_json_non_finite () =
  List.iter
    (fun f ->
      Alcotest.(check string) "renders null" "null" (Json.to_string (Json.Float f));
      Alcotest.check json_t "parses back as null" Json.Null
        (parse_exn (Json.to_string (Json.Float f))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check string) "nested" {|{"x":[null,1.5]}|}
    (Json.to_string (Json.Obj [ ("x", Json.List [ Json.Float Float.nan; Json.Float 1.5 ]) ]))

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

(* --- the scanner, renderer and decoder against their references --- *)

module Ref = Codec_reference

(* A \u escape takes exactly four hex digits.  [int_of_string_opt]
   once read them and took a '_' among them for a digit separator. *)
let test_json_unicode_escape_digits () =
  List.iter
    (fun (input, want) -> Alcotest.check json_t input want (parse_exn input))
    [ ({|"\u0041"|}, Json.String "A"); ({|"\u004a\u004A"|}, Json.String "JJ");
      ({|"x\u000ay"|}, Json.String "x\ny"); ({|"\u00e9"|}, Json.String "?") ];
  List.iter
    (fun (input, want) ->
      Alcotest.(check (result json_t string)) input (Error want)
        (Json.of_string input))
    [ ({|"\u0_41"|}, {|JSON error at offset 2: invalid \u escape|});
      ({|"\u00_A"|}, {|JSON error at offset 2: invalid \u escape|});
      ({|["\u_041"]|}, {|JSON error at offset 3: invalid \u escape|});
      ({|"\u004G"|}, {|JSON error at offset 2: invalid \u escape|});
      ({|"\u+041"|}, {|JSON error at offset 2: invalid \u escape|});
      ({|"\u004"|}, {|JSON error at offset 2: invalid \u escape|});
      ({|"\u004|}, {|JSON error at offset 2: truncated \u escape|}) ]

(* Equal trees, floats compared by their bits. *)
let rec same_tree a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal same_tree xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && same_tree x y) xs ys
  | (Json.Float _ | Json.List _ | Json.Obj _), _ -> false
  | _ -> a = b

(* The one difference the scanner may show: an error at a \u escape
   whose four bytes hold a '_', which the reference read as a digit
   separator. *)
let underscore_escape input = function
  | Ok _ -> false
  | Error msg -> (
    match
      Scanf.sscanf_opt msg "JSON error at offset %d: %[^\n]" (fun at m -> (at, m))
    with
    | Some (at, {|invalid \u escape|}) ->
      at + 4 < String.length input
      && input.[at] = 'u'
      && String.contains (String.sub input (at + 1) 4) '_'
    | _ -> false)

let check_scan input =
  let got = Json.of_string input and want = Ref.of_string input in
  let same =
    match (got, want) with
    | Ok a, Ok b -> same_tree a b
    | Error a, Error b -> String.equal a b
    | _ -> false
  in
  if not (same || underscore_escape input got) then
    Alcotest.failf "scanner differs on %S:\n  got  %s\n  want %s" input
      (match got with Ok v -> Json.to_string v | Error m -> m)
      (match want with Ok v -> Ref.to_string v | Error m -> m)

(* [Graph.create] itself raises on some hostile operator parameters;
   both decoders call it, so both must raise the same. *)
let check_decode v =
  let show = function
    | Ok g -> Codec.to_string ~pretty:false g
    | Error m -> "error: " ^ m
  in
  let outcome decode =
    try decode v with e -> Error ("raised " ^ Printexc.to_string e)
  in
  match (outcome Codec.graph_of_json, outcome Ref.graph_of_json) with
  | Ok a, Ok b when graphs_equal a b -> ()
  | Error a, Error b when String.equal a b -> ()
  | got, want ->
    Alcotest.failf "decoder differs on %s:\n  got  %s\n  want %s"
      (Ref.to_string v) (show got) (show want)

(* Seeded inputs: the committed field requests, the tier = serve
   envelopes, every [Gen] family rendered compact and pretty, and
   hand-made edge cases of the scanner's language. *)
let scan_corpus () =
  let envelopes =
    (* The tier = serve property's 240 envelopes, drawn as it draws them. *)
    let pools = Test_tier.field_pools () in
    let st = Random.State.make [| 20261020 |] in
    List.init 240 (fun _ -> Test_tier.random_line pools st)
  in
  let st = Random.State.make [| 43; 1 |] in
  let graphs =
    List.concat_map
      (fun family ->
        List.concat
          (List.init 3 (fun i ->
               let g = Check.Gen.graph ~family st ~max_nodes:(6 + (10 * i)) in
               [ Codec.to_string ~pretty:false g; Codec.to_string g ])))
      Check.Gen.families
  in
  let nested depth open_ close =
    String.concat "" (List.init depth (fun _ -> open_))
    ^ "1"
    ^ String.concat "" (List.init depth (fun _ -> close))
  in
  let edges =
    [ ""; " "; "0"; "-0"; "007"; "-"; "--1"; "-a"; "1-2"; "1e5"; "1E+5";
      "-1.5e-3"; "1."; ".5"; "+1"; "1e"; "1 2"; "123456789012345678";
      "-123456789012345678"; "1234567890123456789"; "4611686018427387903";
      "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
      "9999999999999999999"; "-999999999999999999";
      String.make 30 '9'; "true"; "tru"; "nulll"; "falsey"; "[1,]"; "[,]";
      "[1 2]"; {|{"a" 1}|}; "{,}"; {|{"a":1,}|}; {|{"a":1 "b":2}|};
      {|{"a":1,"a":2}|}; "{1:2}"; {|"\u0041"|}; {|"\u00e9"|}; {|"\u0_41"|};
      {|"\u00_A"|}; {|"\uZZZZ"|}; {|"\u12"|}; {|"\u1234|}; {|"\x"|};
      {|"a\|}; "\"ctrl\001\031\127\255\""; {|"\"\\\/\b\f\n\r\t"|};
      "\t[ 1 ,\n{ \"k\" :\r[ ] } ]  "; nested 3000 "[" "]";
      nested 3000 {|{"a":|} "}"; nested 3000 "[" "" ]
  in
  List.concat
    [ Helpers.read_lines "golden/protocol_fields.requests.ndjson"; envelopes;
      graphs; edges ]

(* One seeded mutation of [s]: a truncation, a byte flip, inserted
   whitespace, a deleted byte, a key repeated, or more nesting. *)
let mutate st s =
  let len = String.length s in
  let at () = Random.State.int st (len + 1) in
  let splice i cut extra =
    String.sub s 0 i ^ extra ^ String.sub s (i + cut) (len - i - cut)
  in
  let interesting = "{}[],:\"\\u_0123456789abcdefABCDEF-+.eE tnfrl \t\n\r" in
  match Random.State.int st 6 with
  | 0 -> String.sub s 0 (at ())
  | 1 when len > 0 ->
    let c =
      if Random.State.bool st then
        interesting.[Random.State.int st (String.length interesting)]
      else Char.chr (Random.State.int st 256)
    in
    splice (Random.State.int st len) 1 (String.make 1 c)
  | 2 -> splice (at ()) 0 (String.make 1 " \t\n\r".[Random.State.int st 4])
  | 3 when len > 0 -> splice (Random.State.int st len) 1 ""
  | 4 -> (
    (* Repeat a field of some object, before or after the original. *)
    let rec objects acc = function
      | Json.Obj fields as v ->
        List.fold_left (fun acc (_, x) -> objects acc x) (v :: acc) fields
      | Json.List items -> List.fold_left objects acc items
      | _ -> acc
    in
    match Json.of_string s with
    | Ok v -> (
      match objects [] v with
      | [] -> s
      | objs ->
        let target = List.nth objs (Random.State.int st (List.length objs)) in
        let rec rebuild = function
          | Json.Obj fields as o when o == target && fields <> [] ->
            let k, x = List.nth fields (Random.State.int st (List.length fields)) in
            let copy = (k, if Random.State.bool st then x else Json.Int 7) in
            Json.Obj
              (if Random.State.bool st then copy :: fields else fields @ [ copy ])
          | Json.Obj fields ->
            Json.Obj (List.map (fun (k, x) -> (k, rebuild x)) fields)
          | Json.List items -> Json.List (List.map rebuild items)
          | x -> x
        in
        Json.to_string (rebuild v))
    | Error _ -> s)
  | _ ->
    let depth = 1 + Random.State.int st 40 in
    let opens = String.concat "" (List.init depth (fun _ -> {|[{"k":|})) in
    let closes = String.concat "" (List.init depth (fun _ -> "}]")) in
    opens ^ s ^ if Random.State.bool st then closes else ""

(* Graph documents whose parse both scanners accept decode alike:
   whole documents and request targets. *)
let decode_candidate = function
  | Ok v -> (
    match (Json.member_opt "graph" v, Json.member_opt "format" v) with
    | Some g, _ -> Some g
    | None, Some _ -> Some v
    | None, None -> None)
  | Error _ -> None

let test_scanner_matches_reference () =
  let corpus = Array.of_list (scan_corpus ()) in
  let check input =
    check_scan input;
    Option.iter check_decode (decode_candidate (Ref.of_string input))
  in
  Array.iter check corpus;
  let st = Random.State.make [| 43; 2 |] in
  for _ = 1 to 10_000 do
    let base = corpus.(Random.State.int st (Array.length corpus)) in
    let once = mutate st base in
    check (if Random.State.int st 4 = 0 then mutate st once else once)
  done

(* Malformed graph documents built as trees, [Raw] values among them:
   a node's field dropped, repeated with another value before or after
   it, or given a value of the wrong shape, or its op's kind changed. *)
let test_decoder_matches_reference () =
  let st = Random.State.make [| 43; 3 |] in
  let junk () =
    let pick l = List.nth l (Random.State.int st (List.length l)) in
    pick
      [ Json.Null; Json.Bool true; Json.Int (-1); Json.Int 3; Json.Float 2.5;
        Json.String "x"; Json.String "same"; Json.String "max";
        Json.String "conv"; Json.String "pool"; Json.List [];
        Json.List [ Json.Int 1 ]; Json.List [ Json.Int 1; Json.Int 2 ];
        Json.List [ Json.Int 1; Json.String "2" ]; Json.Obj [];
        Json.Obj [ ("kind", Json.String "add") ];
        Json.Raw (Json.compact (Json.Int 3));
        Json.Raw (Json.compact (Json.String "b"));
        Json.Raw (Json.compact (Json.List [ Json.Int 3; Json.Int 3 ])) ]
  in
  let edit fields =
    let n = List.length fields in
    let i = Random.State.int st (max 1 n) in
    match Random.State.int st 4 with
    | 0 -> List.filteri (fun j _ -> j <> i) fields
    | 1 when n > 0 ->
      let k, _ = List.nth fields i in
      if Random.State.bool st then (k, junk ()) :: fields
      else fields @ [ (k, junk ()) ]
    | 2 when n > 0 -> List.mapi (fun j (k, x) -> (k, if j = i then junk () else x)) fields
    | _ -> ("kind", junk ()) :: fields
  in
  let mutate_node = function
    | Json.Obj fields ->
      if Random.State.int st 3 = 0 then
        Json.Obj
          (List.map
             (fun (k, x) ->
               match (k, x) with
               | "op", Json.Obj op -> (k, Json.Obj (edit op))
               | _ -> (k, x))
             fields)
      else Json.Obj (edit fields)
    | v -> v
  in
  for round = 1 to 3_000 do
    let family =
      List.nth Check.Gen.families (round mod List.length Check.Gen.families)
    in
    let doc = Codec.graph_to_json (Check.Gen.graph ~family st ~max_nodes:8) in
    let doc =
      match doc with
      | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, x) ->
               match (k, x) with
               | "nodes", Json.List nodes ->
                 let at = Random.State.int st (List.length nodes) in
                 let node j nd =
                   if j <> at then nd
                   else if Random.State.int st 8 = 0 then junk ()
                   else mutate_node nd
                 in
                 (k, Json.List (List.mapi node nodes))
               | ("format" | "version"), _ when Random.State.int st 20 = 0 ->
                 (k, junk ())
               | _ -> (k, x))
             fields)
      | v -> v
    in
    check_decode doc;
    if round mod 10 = 0 then check_decode (Json.Raw (Json.compact doc))
  done

(* Random trees for the renderer: every escape, ints at the digit and
   sign boundaries, floats at the 1e15 switch, NaN, the infinities and
   random bit patterns, [Raw] parts, and empty or nested lists and
   objects. *)
let rec render_tree st depth =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let text () =
    String.init (Random.State.int st 8) (fun _ ->
        if Random.State.bool st then Char.chr (Random.State.int st 256)
        else pick [| '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; 'a'; '/' |])
  in
  let leaf () =
    match Random.State.int st 8 with
    | 0 -> pick [| Json.Null; Json.Bool true; Json.Bool false |]
    | 1 ->
      Json.Int
        (pick
           [| 0; 1; 9; 10; -1; -9; -10; 99; 100; -100; 999_999; 1_000_000;
              999_999_999; 1_000_000_000; -999_999_999; -1_000_000_000;
              max_int; min_int; max_int - 1; min_int + 1 |])
    | 2 ->
      let magnitude = Random.State.int st 19 in
      let i = Random.State.int st 1_000_000_000 * int_of_float (10. ** float magnitude) in
      Json.Int (if Random.State.bool st then i else -i)
    | 3 ->
      Json.Float
        (pick
           [| 1e15; -1e15; Float.pred 1e15; Float.succ 1e15; 999999999999999.;
              -999999999999999.; 1e15 +. 2.; 0.; -0.; Float.nan; -.Float.nan;
              Float.infinity; Float.neg_infinity; 5e-324; Float.max_float;
              Float.min_float; 0.1; 2.5; -1.5; 1e300; 4611686018427387904. |])
    | 4 -> Json.Float (Int64.float_of_bits (Random.State.bits64 st))
    | 5 -> Json.Float (float_of_int (Random.State.int st 2_000_001 - 1_000_000) /. 8.)
    | _ -> Json.String (text ())
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int st 6 with
    | 0 | 1 -> leaf ()
    | 2 -> Json.List (List.init (Random.State.int st 4) (fun _ -> render_tree st (depth - 1)))
    | 3 ->
      Json.Obj
        (List.init (Random.State.int st 4) (fun _ -> (text (), render_tree st (depth - 1))))
    | 4 -> Json.Raw (Json.compact (render_tree st (depth - 1)))
    | _ -> pick [| Json.List []; Json.Obj []; Json.List [ Json.List [] ]; Json.Obj [ ("", Json.Obj []) ] |]

let test_render_matches_reference () =
  let st = Random.State.make [| 43; 4 |] in
  for _ = 1 to 3_000 do
    let v = render_tree st 4 in
    List.iter
      (fun indent ->
        Alcotest.(check string)
          (Printf.sprintf "indent %d" indent)
          (Ref.to_string ~indent v) (Json.to_string ~indent v))
      [ 0; 2 ];
    Alcotest.(check string) "to_line" (Ref.render ~indent:0 ~suffix:"\n" v)
      (Json.to_line v)
  done

let suite =
  [ Alcotest.test_case "json values" `Quick test_json_values;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json compact/pretty" `Quick test_json_roundtrip_compact_and_pretty;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "json numeric/bool accessors" `Quick
      test_json_numeric_and_bool_accessors;
    prop_json_roundtrip;
    prop_json_raw_laws;
    Alcotest.test_case "json non-finite floats render as null" `Quick
      test_json_non_finite;
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
    Alcotest.test_case "json \\u escape takes four hex digits" `Quick
      test_json_unicode_escape_digits;
    Alcotest.test_case "json scanner matches the reference" `Quick
      test_scanner_matches_reference;
    Alcotest.test_case "graph decoder matches the reference" `Quick
      test_decoder_matches_reference;
    Alcotest.test_case "json render matches the reference" `Quick
      test_render_matches_reference;
    prop_random_graph_roundtrip ]
