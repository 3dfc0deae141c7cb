type t = {
  seed : int;
  case_index : int;
  oracle : string;
  message : string;
  dtype : Tensor.Dtype.t;
  capacity_fraction : float;
  graph : Dnn_graph.Graph.t;
}

let format_version = 1

let to_json c =
  Json.Obj
    [ ("format", Json.String "lcmm-check-case");
      ("version", Json.Int format_version);
      ("seed", Json.Int c.seed);
      ("case_index", Json.Int c.case_index);
      ("oracle", Json.String c.oracle);
      ("message", Json.String c.message);
      ("dtype", Json.String (Tensor.Dtype.to_string c.dtype));
      ("capacity_fraction", Json.Float c.capacity_fraction);
      ("graph", Codec.graph_to_json c.graph) ]

let ( let* ) = Result.bind

let of_json v =
  let* fmt_v = Json.member "format" v in
  let* fmt = Json.to_str fmt_v in
  if fmt <> "lcmm-check-case" then Error (Printf.sprintf "unknown format %S" fmt)
  else
    let* version_v = Json.member "version" v in
    let* version = Json.to_int version_v in
    if version > format_version then
      Error (Printf.sprintf "unsupported version %d (max %d)" version format_version)
    else
      let int_field name =
        let* f = Json.member name v in
        Json.to_int f
      in
      let str_field name =
        let* f = Json.member name v in
        Json.to_str f
      in
      let* seed = int_field "seed" in
      let* case_index = int_field "case_index" in
      let* oracle = str_field "oracle" in
      let* message = str_field "message" in
      let* dtype_s = str_field "dtype" in
      let* dtype =
        match Tensor.Dtype.of_string dtype_s with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "unknown dtype %S" dtype_s)
      in
      let* frac_v = Json.member "capacity_fraction" v in
      let* capacity_fraction = Json.to_float frac_v in
      let* graph_v = Json.member "graph" v in
      let* graph = Codec.graph_of_json graph_v in
      Ok { seed; case_index; oracle; message; dtype; capacity_fraction; graph }

let write_file ~path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~indent:2 (to_json c)))

let read_file ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let* v = Json.of_string content in
    of_json v
