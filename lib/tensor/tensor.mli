(** Tensor substrate: precisions and shapes.

    This module is the library entry point and re-exports {!Dtype} and
    {!Shape}.  Element precision is a whole-design property in this
    accelerator model, so it is supplied where sizes are needed rather
    than stored with a shape. *)

module Dtype = Dtype
module Shape = Shape
