(* The scanner, renderer and graph decoder as they were before they
   read bytes by index, kept verbatim as references for differential
   tests: the library's versions must give the same trees, bytes and
   error strings.  [expand] and the accessors other than
   [member]/[member_opt] come from the library. *)

open Dnn_serial.Json
module G = Dnn_graph.Graph
module Op = Dnn_graph.Op

(* The library's accessors, but for [member]/[member_opt], which looked a
   field up with [List.assoc_opt]. *)
module Json = struct
  include Dnn_serial.Json

  let rec member key = function
    | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" key))
    | Raw _ as v -> member key (expand v)
    | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
      Error (Printf.sprintf "expected an object with field %S" key)

  let rec member_opt key = function
    | Obj fields -> List.assoc_opt key fields
    | Raw _ as v -> member_opt key (expand v)
    | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None
end

exception Parse_error of int * string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> fail (Printf.sprintf "expected %c, found %c" c d)
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub input !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match input.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match input.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape"
               else begin
                 let hex = String.sub input (!pos + 1) 4 in
                 (match int_of_string_opt ("0x" ^ hex) with
                 | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
                 | Some _ -> Buffer.add_char buf '?'
                 | None -> fail "invalid \\u escape");
                 pos := !pos + 4
               end
             | c -> fail (Printf.sprintf "invalid escape \\%c" c));
          advance ();
          loop ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          (key, value)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

(* The text a [Raw] holds: the library returns it as it is, rendering
   nothing. *)
let raw_text v = Dnn_serial.Json.to_string v

(* What [Printf]'s [%.17g] and [%.1f] call, without the format
   interpreter around it. *)
external format_float : string -> float -> string = "caml_format_float"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape_into buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

(* JSON has no token for NaN or an infinity: they render as [null]. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (format_float "%.1f" f)
  else Buffer.add_string buf (format_float "%.17g" f)

(* A 2040-byte buffer is a 256-word block, the largest the minor heap
   takes on 64-bit, so a reply under 2 KB (a compile reply is about
   1.1 KB) renders with no major-heap allocation.  A 1024-byte buffer
   would grow to 2048 bytes, 257 words, which the major heap takes. *)
let initial_buffer_bytes = 2040

(* The rendering, then [suffix] in the same buffer, so the text is
   copied out of it once. *)
let render ~indent ~suffix value =
  match value with
  | Raw _ when indent = 0 -> raw_text value ^ suffix
  | _ ->
    let buf = Buffer.create initial_buffer_bytes in
    let newline depth =
      if indent > 0 then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (indent * depth) ' ')
      end
    in
    let rec emit depth = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f -> add_float buf f
      | String s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
      | Raw _ as v when indent = 0 -> Buffer.add_string buf (raw_text v)
      | Raw _ as v -> emit depth (expand v)
      | List [] -> Buffer.add_string buf "[]"
      | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline (depth + 1);
            emit (depth + 1) item)
          items;
        newline depth;
        Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, item) ->
            if i > 0 then Buffer.add_char buf ',';
            newline (depth + 1);
            Buffer.add_char buf '"';
            escape_into buf key;
            Buffer.add_string buf "\":";
            if indent > 0 then Buffer.add_char buf ' ';
            emit (depth + 1) item)
          fields;
        newline depth;
        Buffer.add_char buf '}'
    in
    emit 0 value;
    Buffer.add_string buf suffix;
    Buffer.contents buf

let to_string ?(indent = 0) value = render ~indent ~suffix:"" value

let format_version = Dnn_serial.Codec.format_version

let ( let* ) = Result.bind

let rec padding_of_json = function
  | Json.String "valid" -> Ok Op.Valid
  | Json.String "same" -> Ok Op.Same
  | Json.Int p -> Ok (Op.Explicit p)
  | Json.String other -> Error (Printf.sprintf "unknown padding %S" other)
  | Json.Raw _ as v -> padding_of_json (Json.expand v)
  | Json.Null | Json.Bool _ | Json.Float _ | Json.List _ | Json.Obj _ ->
    Error "invalid padding"

let pair_of_json v =
  let* items = Json.to_list v in
  match items with
  | [ a; b ] ->
    let* a = Json.to_int a in
    let* b = Json.to_int b in
    Ok (a, b)
  | _ -> Error "expected a two-element array"

let int_field key v =
  let* field = Json.member key v in
  Json.to_int field

let op_of_json v =
  let* kind_v = Json.member "kind" v in
  let* kind = Json.to_str kind_v in
  match kind with
  | "input" ->
    let* channels = int_field "channels" v in
    let* height = int_field "height" v in
    let* width = int_field "width" v in
    Ok (Op.Input { channels; height; width })
  | "conv" ->
    let* out_channels = int_field "out_channels" v in
    let* kernel_v = Json.member "kernel" v in
    let* kernel = pair_of_json kernel_v in
    let* stride_v = Json.member "stride" v in
    let* stride = pair_of_json stride_v in
    let* padding_v = Json.member "padding" v in
    let* padding = padding_of_json padding_v in
    let* groups = int_field "groups" v in
    Ok (Op.Conv { out_channels; kernel; stride; padding; groups })
  | "pool" ->
    let* kind_v = Json.member "pool_kind" v in
    let* kind_s = Json.to_str kind_v in
    let* pool_kind =
      match kind_s with
      | "max" -> Ok Op.Max
      | "avg" -> Ok Op.Avg
      | other -> Error (Printf.sprintf "unknown pool kind %S" other)
    in
    let* kernel_v = Json.member "kernel" v in
    let* pool_kernel = pair_of_json kernel_v in
    let* stride_v = Json.member "stride" v in
    let* pool_stride = pair_of_json stride_v in
    let* padding_v = Json.member "padding" v in
    let* pool_padding = padding_of_json padding_v in
    let* global =
      match Json.member_opt "global" v with
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error "invalid global flag"
      | None -> Ok false
    in
    Ok (Op.Pool { pool_kind; pool_kernel; pool_stride; pool_padding; global })
  | "add" -> Ok Op.Eltwise_add
  | "concat" -> Ok Op.Concat
  | "upsample" ->
    let* factor = int_field "factor" v in
    Ok (Op.Upsample { factor })
  | "dense" ->
    let* out_features = int_field "out_features" v in
    Ok (Op.Dense { out_features })
  | other -> Error (Printf.sprintf "unknown operator kind %S" other)

let node_of_json v =
  let* id = int_field "id" v in
  let* name_v = Json.member "name" v in
  let* node_name = Json.to_str name_v in
  let* op_v = Json.member "op" v in
  let* op = op_of_json op_v in
  let* preds_v = Json.member "preds" v in
  let* pred_items = Json.to_list preds_v in
  let* preds =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* p = Json.to_int item in
        Ok (p :: acc))
      (Ok []) pred_items
  in
  let* block =
    match Json.member_opt "block" v with
    | None -> Ok None
    | Some (Json.String b) -> Ok (Some b)
    | Some _ -> Error "invalid block tag"
  in
  Ok { G.id; node_name; op; preds = List.rev preds; block }

let graph_of_json v =
  let* fmt_v = Json.member "format" v in
  let* fmt = Json.to_str fmt_v in
  if fmt <> "lcmm-graph" then Error (Printf.sprintf "unknown format %S" fmt)
  else
    let* version = int_field "version" v in
    if version > format_version then
      Error (Printf.sprintf "unsupported version %d (max %d)" version format_version)
    else
      let* nodes_v = Json.member "nodes" v in
      let* node_items = Json.to_list nodes_v in
      let* nodes =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* nd = node_of_json item in
            Ok (nd :: acc))
          (Ok []) node_items
      in
      G.create (List.rev nodes)
