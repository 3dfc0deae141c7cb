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

let to_string ?(pretty = true) g =
  Json.to_string ~indent:(if pretty then 2 else 0) (graph_to_json g)

let digest_string s = Digest.to_hex (Digest.string s)

let digest g = digest_string (to_string ~pretty:false g)

let of_string s =
  let* v = Json.of_string s in
  graph_of_json v

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
