module Metric = Lcmm.Metric
module Latency = Accel.Latency

type binding = Compute | Input_stream | Weight_stream | Output_stream

let pinned_fraction metric ~on_chip id =
  let k = metric.Metric.slices.(id) in
  if k = 1 then
    if Metric.Item_set.mem (Metric.Weight_of id) on_chip then 1. else 0.
  else begin
    let count = ref 0 in
    for index = 0 to k - 1 do
      if Metric.Item_set.mem (Metric.Weight_slice { node = id; index; of_k = k }) on_chip
      then incr count
    done;
    float_of_int !count /. float_of_int k
  end

let pinned_weight metric ~on_chip id = pinned_fraction metric ~on_chip id > 0.

let released_edges ?(weights_resident = false) ?prefetch metric ~on_chip n =
  let released = Array.make n [] in
  (match prefetch with
  | None -> ()
  | Some _ when weights_resident -> ()
  | Some pdg ->
    List.iter
      (fun e ->
        if pinned_weight metric ~on_chip e.Lcmm.Prefetch.target then
          released.(e.Lcmm.Prefetch.source) <-
            e :: released.(e.Lcmm.Prefetch.source))
      (Lcmm.Prefetch.edges pdg));
  (* Restore release order (edges were prepended). *)
  Array.map List.rev released

let has_edge released n =
  let flags = Array.make n false in
  Array.iter
    (List.iter (fun e -> flags.(e.Lcmm.Prefetch.target) <- true))
    released;
  flags

let demand_load ?(weights_resident = false) metric ~on_chip ~has_edge
    (p : Latency.profile) =
  let id = p.Latency.node_id in
  if
    pinned_weight metric ~on_chip id && (not weights_resident)
    && (not has_edge.(id))
    && p.Latency.wt_load_once > 0.
  then Some (p.Latency.wt_load_once *. pinned_fraction metric ~on_chip id)
  else None

let if_time ~on_chip (p : Latency.profile) =
  let acc = ref 0. in
  for j = 0 to Array.length p.Latency.if_values - 1 do
    let v = p.Latency.if_values.(j) in
    if not (Metric.Item_set.mem (Metric.Feature_value v) on_chip) then
      acc := !acc +. p.Latency.if_secs.(j)
  done;
  !acc

let of_time ~on_chip (p : Latency.profile) =
  if Metric.Item_set.mem (Metric.Feature_value p.Latency.node_id) on_chip then 0.
  else p.Latency.of_term

(* Compute first, then each component in Eq. 1 order; a component
   takes over only when strictly larger, so ties keep the earlier one. *)
let duration_and_binding ~latc ~if_time ~wt_component ~of_time =
  let binding = ref Compute and best = ref latc in
  if if_time > !best then begin binding := Input_stream; best := if_time end;
  if wt_component > !best then begin
    binding := Weight_stream;
    best := wt_component
  end;
  if of_time > !best then begin binding := Output_stream; best := of_time end;
  (!binding, !best)

let of_stream_bytes ~on_chip (p : Latency.profile) =
  if Metric.Item_set.mem (Metric.Feature_value p.Latency.node_id) on_chip then 0
  else p.Latency.of_stream_bytes
