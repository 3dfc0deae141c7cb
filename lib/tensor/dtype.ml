type t = I8 | I16 | F32

let all = [ I8; I16; F32 ]

let bytes = function I8 -> 1 | I16 -> 2 | F32 -> 4

let dsp_cost_per_mac = function I8 -> 0.5 | I16 -> 1. | F32 -> 3.5

let to_string = function I8 -> "i8" | I16 -> "i16" | F32 -> "f32"

let of_string s =
  match String.lowercase_ascii s with
  | "i8" | "int8" | "8" | "8-bit" -> Some I8
  | "i16" | "int16" | "16" | "16-bit" -> Some I16
  | "f32" | "fp32" | "float32" | "32" | "32-bit" -> Some F32
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)

let equal a b =
  match a, b with
  | I8, I8 | I16, I16 | F32, F32 -> true
  | (I8 | I16 | F32), _ -> false

let compare a b = Stdlib.compare a b
