type interval = { start_pos : int; end_pos : int }

let make ~start_pos ~end_pos =
  if end_pos < start_pos then invalid_arg "Liveness.make: end before start";
  { start_pos; end_pos }

let overlaps a b = a.start_pos <= b.end_pos && b.start_pos <= a.end_pos

let feature_interval g v =
  make ~start_pos:v ~end_pos:(Dnn_graph.Values.last_use g v)

let weight_interval ~prefetch_source n =
  let start_pos = match prefetch_source n with Some s -> s | None -> n in
  make ~start_pos:(min start_pos n) ~end_pos:n

let interval ~last_use ~prefetch_source = function
  | Metric.Feature_value v -> make ~start_pos:v ~end_pos:(last_use v)
  | Metric.Weight_of n -> weight_interval ~prefetch_source n
  | Metric.Weight_slice { node; _ } -> weight_interval ~prefetch_source node

let item_interval g = interval ~last_use:(Dnn_graph.Values.last_use g)
let metric_interval metric =
  interval ~last_use:(Array.get metric.Metric.last_use)

let pp ppf i = Format.fprintf ppf "[%d,%d]" i.start_pos i.end_pos
