module Dtype = Dtype
module Shape = Shape
