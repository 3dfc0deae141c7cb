type feature = { channels : int; height : int; width : int }

type filter = {
  out_channels : int;
  in_channels : int;
  kernel_h : int;
  kernel_w : int;
}

type t = Feature of feature | Filter of filter | Vector of int

let check_positive name v =
  if v <= 0 then invalid_arg (Printf.sprintf "Shape: %s must be positive, got %d" name v)

let feature ~channels ~height ~width =
  check_positive "channels" channels;
  check_positive "height" height;
  check_positive "width" width;
  Feature { channels; height; width }

let filter ~out_channels ~in_channels ~kernel_h ~kernel_w =
  check_positive "out_channels" out_channels;
  check_positive "in_channels" in_channels;
  check_positive "kernel_h" kernel_h;
  check_positive "kernel_w" kernel_w;
  Filter { out_channels; in_channels; kernel_h; kernel_w }

let vector len =
  check_positive "length" len;
  Vector len

let elements = function
  | Feature { channels; height; width } -> channels * height * width
  | Filter { out_channels; in_channels; kernel_h; kernel_w } ->
    out_channels * in_channels * kernel_h * kernel_w
  | Vector len -> len

let size_bytes dtype t = elements t * Dtype.bytes dtype

let equal a b =
  match a, b with
  | Feature x, Feature y -> x = y
  | Filter x, Filter y -> x = y
  | Vector x, Vector y -> x = y
  | (Feature _ | Filter _ | Vector _), _ -> false

let pp ppf = function
  | Feature { channels; height; width } ->
    Format.fprintf ppf "%dx%dx%d" channels height width
  | Filter { out_channels; in_channels; kernel_h; kernel_w } ->
    Format.fprintf ppf "%dx%dx%dx%d" out_channels in_channels kernel_h kernel_w
  | Vector len -> Format.fprintf ppf "[%d]" len

let to_string t = Format.asprintf "%a" pp t

let as_feature = function
  | Feature f -> Some f
  | Filter _ | Vector _ -> None
