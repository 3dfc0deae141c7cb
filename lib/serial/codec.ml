module G = Dnn_graph.Graph
module Op = Dnn_graph.Op

let format_version = 1

(* --- encoding --- *)

let padding_to_json = function
  | Op.Valid -> Json.String "valid"
  | Op.Same -> Json.String "same"
  | Op.Explicit p -> Json.Int p

let pair_to_json (a, b) = Json.List [ Json.Int a; Json.Int b ]

let op_to_json = function
  | Op.Input { channels; height; width } ->
    Json.Obj
      [ ("kind", Json.String "input"); ("channels", Json.Int channels);
        ("height", Json.Int height); ("width", Json.Int width) ]
  | Op.Conv { out_channels; kernel; stride; padding; groups } ->
    Json.Obj
      [ ("kind", Json.String "conv"); ("out_channels", Json.Int out_channels);
        ("kernel", pair_to_json kernel); ("stride", pair_to_json stride);
        ("padding", padding_to_json padding); ("groups", Json.Int groups) ]
  | Op.Pool { pool_kind; pool_kernel; pool_stride; pool_padding; global } ->
    Json.Obj
      [ ("kind", Json.String "pool");
        ("pool_kind", Json.String (match pool_kind with Op.Max -> "max" | Op.Avg -> "avg"));
        ("kernel", pair_to_json pool_kernel); ("stride", pair_to_json pool_stride);
        ("padding", padding_to_json pool_padding); ("global", Json.Bool global) ]
  | Op.Eltwise_add -> Json.Obj [ ("kind", Json.String "add") ]
  | Op.Concat -> Json.Obj [ ("kind", Json.String "concat") ]
  | Op.Upsample { factor } ->
    Json.Obj [ ("kind", Json.String "upsample"); ("factor", Json.Int factor) ]
  | Op.Dense { out_features } ->
    Json.Obj [ ("kind", Json.String "dense"); ("out_features", Json.Int out_features) ]

let node_to_json nd =
  let base =
    [ ("id", Json.Int nd.G.id); ("name", Json.String nd.G.node_name);
      ("op", op_to_json nd.G.op);
      ("preds", Json.List (List.map (fun p -> Json.Int p) nd.G.preds)) ]
  in
  let tagged =
    match nd.G.block with
    | None -> base
    | Some b -> base @ [ ("block", Json.String b) ]
  in
  Json.Obj tagged

let graph_to_json g =
  Json.Obj
    [ ("format", Json.String "lcmm-graph"); ("version", Json.Int format_version);
      ("nodes", Json.List (List.map node_to_json (G.nodes g))) ]

(* --- decoding --- *)

(* A decoding error, raised inside one graph's decode and returned as
   [Error] where it ends, so a field costs no [Result.bind] closure. *)
exception Invalid of string

let invalid msg = raise (Invalid msg)

let get = function Ok x -> x | Error msg -> invalid msg

(* Each reader takes the constructor a parsed document carries and
   leaves any other value to [Json]'s accessor, which expands a [Raw]
   and words the error. *)
let to_int = function Json.Int i -> i | v -> get (Json.to_int v)

let to_str = function Json.String s -> s | v -> get (Json.to_str v)

let to_list = function Json.List l -> l | v -> get (Json.to_list v)

let member key v = get (Json.member key v)

let int_field key v = to_int (member key v)

let rec padding_of_json = function
  | Json.String "valid" -> Op.Valid
  | Json.String "same" -> Op.Same
  | Json.Int p -> Op.Explicit p
  | Json.String other -> invalid (Printf.sprintf "unknown padding %S" other)
  | Json.Raw _ as v -> padding_of_json (Json.expand v)
  | Json.Null | Json.Bool _ | Json.Float _ | Json.List _ | Json.Obj _ ->
    invalid "invalid padding"

let pair_of_json v =
  match to_list v with
  | [ a; b ] ->
    let a = to_int a in
    let b = to_int b in
    (a, b)
  | _ -> invalid "expected a two-element array"

let op_of_json v =
  match to_str (member "kind" v) with
  | "input" ->
    let channels = int_field "channels" v in
    let height = int_field "height" v in
    let width = int_field "width" v in
    Op.Input { channels; height; width }
  | "conv" ->
    let out_channels = int_field "out_channels" v in
    let kernel = pair_of_json (member "kernel" v) in
    let stride = pair_of_json (member "stride" v) in
    let padding = padding_of_json (member "padding" v) in
    let groups = int_field "groups" v in
    Op.Conv { out_channels; kernel; stride; padding; groups }
  | "pool" ->
    let pool_kind =
      match to_str (member "pool_kind" v) with
      | "max" -> Op.Max
      | "avg" -> Op.Avg
      | other -> invalid (Printf.sprintf "unknown pool kind %S" other)
    in
    let pool_kernel = pair_of_json (member "kernel" v) in
    let pool_stride = pair_of_json (member "stride" v) in
    let pool_padding = padding_of_json (member "padding" v) in
    let global =
      match Json.member_opt "global" v with
      | Some (Json.Bool b) -> b
      | Some _ -> invalid "invalid global flag"
      | None -> false
    in
    Op.Pool { pool_kind; pool_kernel; pool_stride; pool_padding; global }
  | "add" -> Op.Eltwise_add
  | "concat" -> Op.Concat
  | "upsample" -> Op.Upsample { factor = int_field "factor" v }
  | "dense" -> Op.Dense { out_features = int_field "out_features" v }
  | other -> invalid (Printf.sprintf "unknown operator kind %S" other)

let first seen v = match seen with None -> Some v | Some _ -> seen

let required key = function
  | Some v -> v
  | None -> invalid (Printf.sprintf "missing field %S" key)

(* A node's fields in one walk over its object: a repeated key keeps its
   first value, as [Json.member] finds it.  The values are then read in
   the order that picks which error a malformed node reports. *)
let rec node_fields id name op preds block = function
  | (key, v) :: rest -> (
    match key with
    | "id" -> node_fields (first id v) name op preds block rest
    | "name" -> node_fields id (first name v) op preds block rest
    | "op" -> node_fields id name (first op v) preds block rest
    | "preds" -> node_fields id name op (first preds v) block rest
    | "block" -> node_fields id name op preds (first block v) rest
    | _ -> node_fields id name op preds block rest)
  | [] ->
    let id = to_int (required "id" id) in
    let node_name = to_str (required "name" name) in
    let op = op_of_json (required "op" op) in
    let preds = List.map to_int (to_list (required "preds" preds)) in
    let block =
      match block with
      | None -> None
      | Some (Json.String b) -> Some b
      | Some _ -> invalid "invalid block tag"
    in
    { G.id; node_name; op; preds; block }

let rec node_of_json = function
  | Json.Obj fields -> node_fields None None None None None fields
  | Json.Raw _ as v -> node_of_json (Json.expand v)
  | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _
  | Json.List _ ->
    invalid "expected an object with field \"id\""

let graph_of_json v =
  match
    let fmt = to_str (member "format" v) in
    if fmt <> "lcmm-graph" then invalid (Printf.sprintf "unknown format %S" fmt);
    let version = int_field "version" v in
    if version > format_version then
      invalid
        (Printf.sprintf "unsupported version %d (max %d)" version format_version);
    List.map node_of_json (to_list (member "nodes" v))
  with
  | nodes -> G.create nodes
  | exception Invalid msg -> Error msg

let to_string ?(pretty = true) g =
  Json.to_string ~indent:(if pretty then 2 else 0) (graph_to_json g)

let digest_string s = Digest.to_hex (Digest.string s)

let digest g = digest_string (to_string ~pretty:false g)

let of_string s = Result.bind (Json.of_string s) graph_of_json

let write_file ~path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let read_file ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_string content
