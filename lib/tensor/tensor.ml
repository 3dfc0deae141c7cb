module Dtype = Dtype
module Shape = Shape

type kind = Feature_map | Weight

type t = { id : int; name : string; kind : kind; shape : Shape.t }

let make ~id ~name ~kind ~shape =
  if id < 0 then invalid_arg "Tensor.make: negative id";
  if String.length name = 0 then invalid_arg "Tensor.make: empty name";
  { id; name; kind; shape }

let size_bytes dtype t = Shape.size_bytes dtype t.shape

let is_weight t = t.kind = Weight

let equal a b = a.id = b.id && a.kind = b.kind

let pp_kind ppf = function
  | Feature_map -> Format.pp_print_string ppf "feature"
  | Weight -> Format.pp_print_string ppf "weight"

let pp ppf t =
  Format.fprintf ppf "%s#%d(%a %a)" t.name t.id pp_kind t.kind Shape.pp t.shape
