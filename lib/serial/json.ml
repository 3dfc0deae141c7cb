type compact = string

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of compact

(* --- parsing: recursive descent over a string with an index --- *)

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

(* A [Raw] holds the compact rendering of some value, so it always
   parses. *)
let expand = function
  | Raw text -> (
    match of_string text with
    | Ok v -> v
    | Error msg -> invalid_arg ("Json.expand: " ^ msg))
  | v -> v

(* --- rendering --- *)

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
  | Raw text when indent = 0 -> if suffix = "" then text else text ^ suffix
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
      | Raw text when indent = 0 -> Buffer.add_string buf text
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

let to_line value = render ~indent:0 ~suffix:"\n" value

let compact v = to_string v

let pp ppf v = Format.pp_print_string ppf (to_string ~indent:2 v)

(* A [Raw] is compared by its rendering: [Float 1e15] renders as an
   integer and parses back as [Int], so parsed trees would differ. *)
let rec equal a b =
  match (a, b) with
  | Raw _, _ | _, Raw _ -> String.equal (to_string a) (to_string b)
  | List xs, List ys -> List.equal equal xs ys
  | Obj xs, Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && equal x y) xs ys
  | _ -> a = b

(* --- accessors: a [Raw] is parsed when met --- *)

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

let rec to_int = function
  | Int i -> Ok i
  | Raw _ as v -> to_int (expand v)
  | Null | Bool _ | Float _ | String _ | List _ | Obj _ -> Error "expected an integer"

let rec to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | Raw _ as v -> to_float (expand v)
  | Null | Bool _ | String _ | List _ | Obj _ -> Error "expected a number"

let rec to_bool = function
  | Bool b -> Ok b
  | Raw _ as v -> to_bool (expand v)
  | Null | Int _ | Float _ | String _ | List _ | Obj _ -> Error "expected a boolean"

let rec to_str = function
  | String s -> Ok s
  | Raw _ as v -> to_str (expand v)
  | Null | Bool _ | Int _ | Float _ | List _ | Obj _ -> Error "expected a string"

let rec to_list = function
  | List l -> Ok l
  | Raw _ as v -> to_list (expand v)
  | Null | Bool _ | Int _ | Float _ | String _ | Obj _ -> Error "expected an array"
