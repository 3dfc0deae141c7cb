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

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

(* The bytes a number token runs over; the token is then read whole. *)
let number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* The four hex digits of [s] from [i] as a code point, or -1 when any
   of them is not a hex digit. *)
let hex4 s i =
  let a = hex_value (String.unsafe_get s i)
  and b = hex_value (String.unsafe_get s (i + 1))
  and c = hex_value (String.unsafe_get s (i + 2))
  and d = hex_value (String.unsafe_get s (i + 3)) in
  if a < 0 || b < 0 || c < 0 || d < 0 then -1
  else (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

(* [word] occurs in [s] at [i], its first [j] bytes already matched. *)
let rec occurs_at s i word j =
  j = String.length word
  || i + j < String.length s
     && String.unsafe_get s (i + j) = String.unsafe_get word j
     && occurs_at s i word (j + 1)

(* The index of the first quote or backslash in [s] from [i], or the
   length of [s]. *)
let rec plain_end s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> plain_end s (i + 1)

(* Work and allocation in proportion to the tokens, not the bytes: the
   scanner reads bytes by index, a string with no escape is one
   [String.sub], and a short integer is accumulated in place. *)
let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let skip_ws () =
    while !pos < n && is_ws (String.unsafe_get input !pos) do
      incr pos
    done
  in
  let at c = !pos < n && String.unsafe_get input !pos = c in
  let expect c =
    if !pos >= n then fail (Printf.sprintf "expected %c, found end of input" c)
    else
      let d = String.unsafe_get input !pos in
      if d = c then incr pos
      else fail (Printf.sprintf "expected %c, found %c" c d)
  in
  let literal word value =
    if occurs_at input !pos word 0 then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  (* The rest of a string from its first backslash, decoded into [buf]. *)
  let rec escaped buf =
    if !pos >= n then fail "unterminated string"
    else
      match String.unsafe_get input !pos with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match String.unsafe_get input !pos with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let code = hex4 input (!pos + 1) in
          if code < 0 then fail "invalid \\u escape";
          Buffer.add_char buf (if code < 128 then Char.chr code else '?');
          pos := !pos + 4
        | c -> fail (Printf.sprintf "invalid escape \\%c" c));
        incr pos;
        escaped buf
      | _ ->
        let stop = plain_end input !pos in
        Buffer.add_substring buf input !pos (stop - !pos);
        pos := stop;
        escaped buf
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain_end input start in
    if stop < n && String.unsafe_get input stop = '"' then begin
      pos := stop + 1;
      String.sub input start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      Buffer.add_substring buf input start (stop - start);
      pos := stop;
      escaped buf
    end
  in
  (* A token of an optional '-' and at most 18 digits fits an [int] and
     is read in place; any other token is read as [int_of_string_opt],
     then [float_of_string_opt], take it. *)
  let parse_number () =
    let start = !pos in
    let first = if String.unsafe_get input start = '-' then start + 1 else start in
    let stop = ref first and acc = ref 0 in
    while !stop < n && is_digit (String.unsafe_get input !stop) do
      acc := (10 * !acc) + Char.code (String.unsafe_get input !stop) - 48;
      incr stop
    done;
    let digits = !stop - first in
    if
      digits >= 1 && digits <= 18
      && not (!stop < n && number_char (String.unsafe_get input !stop))
    then begin
      pos := !stop;
      Int (if first > start then - !acc else !acc)
    end
    else begin
      while !stop < n && number_char (String.unsafe_get input !stop) do
        incr stop
      done;
      pos := !stop;
      let text = String.sub input start (!stop - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "invalid number %S" text))
    end
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match String.unsafe_get input !pos with
      | '"' -> String (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else
          let first = parse_value () in
          List (first :: items ())
      | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let first = field () in
          Obj (first :: fields ())
      | '0' .. '9' | '-' -> parse_number ()
      | c -> fail (Printf.sprintf "unexpected character %c" c)
  (* The items after a list's first, and the fields after an object's
     first, built front to back: a list of a million items is built in
     constant stack and allocated once. *)
  and[@tail_mod_cons] items () =
    skip_ws ();
    if at ',' then begin
      incr pos;
      let item = parse_value () in
      item :: items ()
    end
    else begin
      expect ']';
      []
    end
  and field () =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    expect ':';
    let value = parse_value () in
    (key, value)
  and[@tail_mod_cons] fields () =
    skip_ws ();
    if at ',' then begin
      incr pos;
      let f = field () in
      f :: fields ()
    end
    else begin
      expect '}';
      []
    end
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

(* The index of the first byte of [s] from [i] that needs an escape, or
   the length of [s]. *)
let rec clean_end s i =
  if i >= String.length s || needs_escape (String.unsafe_get s i) then i
  else clean_end s (i + 1)

let escape_into buf s =
  let clean = clean_end s 0 in
  if clean = String.length s then Buffer.add_string buf s
  else begin
    Buffer.add_substring buf s 0 clean;
    for i = clean to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c
    done
  end

(* [string_of_int i], a short one written digit by digit. *)
let add_int buf i =
  if i >= 0 && i < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + i))
  else if i > -1_000_000_000 && i < 1_000_000_000 then begin
    if i < 0 then Buffer.add_char buf '-';
    let a = abs i in
    let scale = ref 1 in
    while !scale * 10 <= a do
      scale := !scale * 10
    done;
    while !scale > 0 do
      Buffer.add_char buf (Char.unsafe_chr (48 + (a / !scale mod 10)));
      scale := !scale / 10
    done
  end
  else Buffer.add_string buf (string_of_int i)

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
        for _ = 1 to indent * depth do
          Buffer.add_char buf ' '
        done
      end
    in
    let rec emit depth = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> add_int buf i
      | Float f -> add_float buf f
      | String s ->
        Buffer.add_char buf '"';
        escape_into buf s;
        Buffer.add_char buf '"'
      | Raw text when indent = 0 -> Buffer.add_string buf text
      | Raw _ as v -> emit depth (expand v)
      | List [] -> Buffer.add_string buf "[]"
      | List (first :: rest) ->
        Buffer.add_char buf '[';
        newline (depth + 1);
        emit (depth + 1) first;
        items (depth + 1) rest;
        newline depth;
        Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj (first :: rest) ->
        Buffer.add_char buf '{';
        field (depth + 1) first;
        fields (depth + 1) rest;
        newline depth;
        Buffer.add_char buf '}'
    (* The items after a list's first, each at [depth]. *)
    and items depth = function
      | [] -> ()
      | item :: rest ->
        Buffer.add_char buf ',';
        newline depth;
        emit depth item;
        items depth rest
    and field depth (key, item) =
      newline depth;
      Buffer.add_char buf '"';
      escape_into buf key;
      Buffer.add_string buf "\":";
      if indent > 0 then Buffer.add_char buf ' ';
      emit depth item
    and fields depth = function
      | [] -> ()
      | f :: rest ->
        Buffer.add_char buf ',';
        field depth f;
        fields depth rest
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

(* The first field named [key]: [List.assoc_opt] with [String.equal] for
   its polymorphic compare. *)
let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let rec member key = function
  | Obj fields -> (
    match assoc key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key))
  | Raw _ as v -> member key (expand v)
  | Null | Bool _ | Int _ | Float _ | String _ | List _ ->
    Error (Printf.sprintf "expected an object with field %S" key)

let rec member_opt key = function
  | Obj fields -> assoc key fields
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
