type padding = Valid | Same | Explicit of int

type conv = {
  out_channels : int;
  kernel : int * int;
  stride : int * int;
  padding : padding;
  groups : int;
}

type pool_kind = Max | Avg

type pool = {
  pool_kind : pool_kind;
  pool_kernel : int * int;
  pool_stride : int * int;
  pool_padding : padding;
  global : bool;
}

type t =
  | Input of { channels : int; height : int; width : int }
  | Conv of conv
  | Pool of pool
  | Eltwise_add
  | Concat
  | Upsample of { factor : int }
  | Dense of { out_features : int }

(* Spatial output extent along one axis for kernel [k], stride [s] and the
   given padding mode. *)
let spatial_out padding ~extent ~k ~s =
  let pad =
    match padding with
    | Valid -> 0
    | Explicit p -> p
    | Same ->
      let out = (extent + s - 1) / s in
      let needed = ((out - 1) * s) + k - extent in
      max 0 needed / 2
  in
  match padding with
  | Same -> (extent + s - 1) / s
  | Valid | Explicit _ -> ((extent + (2 * pad) - k) / s) + 1

let single_feature inputs =
  match inputs with
  | [ shape ] -> (
    match Tensor.Shape.as_feature shape with
    | Some f -> Ok f
    | None -> Error "expected a feature-map input")
  | [] -> Error "expected one input, got none"
  | _ :: _ :: _ -> Error "expected exactly one input"

(* The shape smart-constructors reject non-positive dimensions; degenerate
   operator parameters (0 output channels, 0 dense features) surface here
   as [Error] rather than an exception. *)
let output_shape_exn op inputs =
  match op with
  | Input { channels; height; width } ->
    if inputs <> [] then Error "Input takes no predecessors"
    else Ok (Tensor.Shape.feature ~channels ~height ~width)
  | Conv { out_channels; kernel = kh, kw; stride = sh, sw; padding; groups } -> (
    match single_feature inputs with
    | Error _ as e -> e
    | Ok { channels; height; width } ->
      if channels mod groups <> 0 then
        Error
          (Printf.sprintf "conv: %d input channels not divisible by %d groups"
             channels groups)
      else if out_channels mod groups <> 0 then
        Error
          (Printf.sprintf "conv: %d output channels not divisible by %d groups"
             out_channels groups)
      else
        let oh = spatial_out padding ~extent:height ~k:kh ~s:sh in
        let ow = spatial_out padding ~extent:width ~k:kw ~s:sw in
        if oh <= 0 || ow <= 0 then Error "conv: kernel larger than padded input"
        else Ok (Tensor.Shape.feature ~channels:out_channels ~height:oh ~width:ow))
  | Pool { pool_kernel = kh, kw; pool_stride = sh, sw; pool_padding; global; _ }
    -> (
    match single_feature inputs with
    | Error _ as e -> e
    | Ok { channels; height; width } ->
      if global then Ok (Tensor.Shape.feature ~channels ~height:1 ~width:1)
      else
        let oh = spatial_out pool_padding ~extent:height ~k:kh ~s:sh in
        let ow = spatial_out pool_padding ~extent:width ~k:kw ~s:sw in
        if oh <= 0 || ow <= 0 then Error "pool: kernel larger than padded input"
        else Ok (Tensor.Shape.feature ~channels ~height:oh ~width:ow))
  | Eltwise_add -> (
    match inputs with
    | [] | [ _ ] -> Error "eltwise add needs at least two inputs"
    | first :: rest ->
      if List.for_all (Tensor.Shape.equal first) rest then
        match Tensor.Shape.as_feature first with
        | Some _ -> Ok first
        | None -> Error "eltwise add: inputs must be feature maps"
      else Error "eltwise add: input shapes differ")
  | Concat -> (
    match inputs with
    | [] -> Error "concat needs at least one input"
    | first :: _ -> (
      match Tensor.Shape.as_feature first with
      | None -> Error "concat: inputs must be feature maps"
      | Some { height; width; _ } ->
        let channel_of shape =
          match Tensor.Shape.as_feature shape with
          | Some f when f.height = height && f.width = width -> Some f.channels
          | Some _ | None -> None
        in
        let rec sum acc = function
          | [] -> Ok acc
          | shape :: rest -> (
            match channel_of shape with
            | Some c -> sum (acc + c) rest
            | None -> Error "concat: spatial dimensions differ")
        in
        match sum 0 inputs with
        | Error _ as e -> e
        | Ok channels -> Ok (Tensor.Shape.feature ~channels ~height ~width)))
  | Upsample { factor } -> (
    if factor <= 0 then Error "upsample: non-positive factor"
    else
      match single_feature inputs with
      | Error _ as e -> e
      | Ok { channels; height; width } ->
        Ok
          (Tensor.Shape.feature ~channels ~height:(height * factor)
             ~width:(width * factor)))
  | Dense { out_features } -> (
    match inputs with
    | [ (Tensor.Shape.Feature _ | Tensor.Shape.Vector _) ] -> Ok (Tensor.Shape.vector out_features)
    | [ Tensor.Shape.Filter _ ] -> Error "dense: filter input is invalid"
    | [] -> Error "dense: expected one input"
    | _ :: _ :: _ -> Error "dense: expected exactly one input")

let output_shape op inputs =
  try output_shape_exn op inputs with Invalid_argument msg -> Error msg

let in_features shape =
  match shape with
  | Tensor.Shape.Feature f -> f.channels * f.height * f.width
  | Tensor.Shape.Vector n -> n
  | Tensor.Shape.Filter _ -> 0

let weight_shape op inputs =
  match op with
  | Conv { out_channels; kernel = kh, kw; groups; _ } -> (
    match single_feature inputs with
    | Error _ -> None
    | Ok { channels; _ } ->
      if channels mod groups <> 0 then None
      else
        Some
          (Tensor.Shape.filter ~out_channels ~in_channels:(channels / groups)
             ~kernel_h:kh ~kernel_w:kw))
  | Dense { out_features } -> (
    match inputs with
    | [ shape ] ->
      let n = in_features shape in
      if n = 0 then None
      else
        Some
          (Tensor.Shape.filter ~out_channels:out_features ~in_channels:n ~kernel_h:1
             ~kernel_w:1)
    | [] | _ :: _ :: _ -> None)
  | Input _ | Pool _ | Eltwise_add | Concat | Upsample _ -> None

let macs op inputs =
  match op with
  | Conv ({ groups; kernel = kh, kw; _ } as c) -> (
    match output_shape op inputs, single_feature inputs with
    | Ok out, Ok { channels; _ } -> (
      match Tensor.Shape.as_feature out with
      | Some o -> o.height * o.width * c.out_channels * (channels / groups) * kh * kw
      | None -> 0)
    | (Error _ | Ok _), _ -> 0)
  | Dense { out_features } -> (
    match inputs with
    | [ shape ] -> out_features * in_features shape
    | [] | _ :: _ :: _ -> 0)
  | Input _ | Pool _ | Eltwise_add | Concat | Upsample _ -> 0

let aux_ops op inputs =
  match op with
  | Pool { pool_kernel = kh, kw; global; _ } -> (
    match output_shape op inputs, inputs with
    | Ok out, [ input ] ->
      let per_out = if global then Tensor.Shape.elements input / max 1 (Tensor.Shape.elements out) else kh * kw in
      Tensor.Shape.elements out * per_out
    | (Error _ | Ok _), _ -> 0)
  | Eltwise_add -> (
    match output_shape op inputs with
    | Ok out -> Tensor.Shape.elements out * (List.length inputs - 1)
    | Error _ -> 0)
  | Upsample _ -> (
    match output_shape op inputs with
    | Ok out -> Tensor.Shape.elements out
    | Error _ -> 0)
  | Input _ | Conv _ | Concat | Dense _ -> 0

let name = function
  | Input _ -> "input"
  | Conv { kernel = kh, kw; stride = sh, _; _ } ->
    if sh = 1 then Printf.sprintf "conv%dx%d" kh kw
    else Printf.sprintf "conv%dx%d/%d" kh kw sh
  | Pool { pool_kind = Max; global = false; _ } -> "maxpool"
  | Pool { pool_kind = Avg; global = false; _ } -> "avgpool"
  | Pool { pool_kind = Max; global = true; _ } -> "gmaxpool"
  | Pool { pool_kind = Avg; global = true; _ } -> "gavgpool"
  | Eltwise_add -> "add"
  | Concat -> "concat"
  | Upsample { factor } -> Printf.sprintf "upsample%d" factor
  | Dense _ -> "dense"

let pp ppf op = Format.pp_print_string ppf (name op)
