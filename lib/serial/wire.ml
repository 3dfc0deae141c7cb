(* The sum digests the exact compact rendering a peer extracts from the
   reply, so byte damage in transit shows when it re-digests what
   arrived. *)
let sum_of payload = Codec.digest_string (Json.to_string payload)

(* Each error class and the stable message prefix it is derived from. *)
let kinds =
  [ ("internal: ", "internal"); ("deadline exceeded", "deadline");
    ("unavailable: ", "unavailable"); ("overloaded", "overloaded") ]

let kind msg =
  List.find_map
    (fun (prefix, k) -> if String.starts_with ~prefix msg then Some k else None)
    kinds

let ok ?id ~op ?cache ?elapsed_ms ?(sum = false) result =
  let fields =
    (match id with None -> [] | Some v -> [ ("id", v) ])
    @ [ ("op", Json.String op); ("ok", Json.Bool true) ]
    @ (match cache with None -> [] | Some c -> [ ("cache", Json.String c) ])
    @ (match elapsed_ms with
      | None -> []
      | Some ms -> [ ("elapsed_ms", Json.Float ms) ])
    @ (if sum then [ ("sum", Json.String (sum_of result)) ] else [])
    @ [ ("result", result) ]
  in
  Json.Obj fields

let error ?id ~op msg =
  let fields =
    (match id with None -> [] | Some v -> [ ("id", v) ])
    @ [ ("op", Json.String op); ("ok", Json.Bool false) ]
    @ (match kind msg with None -> [] | Some k -> [ ("kind", Json.String k) ])
    @ [ ("error", Json.String msg) ]
  in
  Json.Obj fields

let to_line v = Json.to_string v ^ "\n"

type reply = {
  id : Json.t option;
  answer : (Json.t * string option, string * string option) result;
}

let decode line =
  match Json.of_string line with
  | Error msg -> Error ("unparsable: " ^ msg)
  | Ok doc -> (
    let id = Json.member_opt "id" doc in
    match Json.member_opt "ok" doc with
    | Some (Json.Bool true) -> (
      match (Json.member_opt "result" doc, Json.member_opt "sum" doc) with
      | None, _ -> Error "missing result"
      | Some payload, Some (Json.String sum) ->
        Ok { id; answer = Ok (payload, Some sum) }
      | Some payload, _ -> Ok { id; answer = Ok (payload, None) })
    | Some (Json.Bool false) -> (
      match Json.member_opt "error" doc with
      | Some (Json.String msg) -> Ok { id; answer = Error (msg, kind msg) }
      | _ -> Error "missing error")
    | _ -> Error "missing ok field")

let is_blank s =
  String.for_all (function ' ' | '\t' | '\r' -> true | _ -> false) s

(* Requests are one JSON document per line; even a large inline graph
   stays well under a megabyte.  Anything bigger is a runaway or hostile
   client. *)
let max_request_bytes = 8 * 1024 * 1024

(* NDJSON framing reads records byte-by-byte up to the '\n' terminator
   so end-of-input *inside* a record is distinguishable from
   end-of-input between records.  [input_line] cannot make that
   distinction: it silently returns the partial final line, and a peer
   killed mid-write would hand half a JSON document to the parser.
   Past [limit] bytes the record is counted but no longer kept, so a
   line of any length costs at most [limit] bytes of memory. *)
let read_raw_line limit ic =
  let buf = Buffer.create 256 in
  let rec loop n =
    match input_char ic with
    | '\n' -> if n > limit then `Oversized else `Line (Buffer.contents buf)
    | c ->
      if n < limit then Buffer.add_char buf c
      else if n = limit then Buffer.reset buf;
      loop (n + 1)
    | exception End_of_file -> if n = 0 then `Eof else `Partial n
    | exception Sys_error msg -> `Err msg
  in
  loop 0

let partial_error n =
  Printf.sprintf
    "connection closed mid-line after %d bytes (truncated NDJSON record)" n

let rec read_request ic =
  match read_raw_line max_request_bytes ic with
  | `Eof -> `Eof
  | `Partial n -> `Broken (partial_error n)
  | `Err msg -> `Broken msg
  | `Oversized ->
    `Too_long (Printf.sprintf "request exceeds %d bytes" max_request_bytes)
  | `Line line -> if is_blank line then read_request ic else `Line line

let read_reply ic =
  match read_raw_line max_int ic with
  | `Line line -> Ok line
  | `Eof -> Error "connection closed before reply"
  | `Partial n -> Error (partial_error n)
  | `Err msg -> Error msg
  | `Oversized -> Error "reply too long"
