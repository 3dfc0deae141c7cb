module Metric = Lcmm.Metric

type outcome = {
  on_chip : Metric.Item_set.t;
  run : Engine.run;
  unpinned : Metric.item list;
  initial_total : float;
  refined_total : float;
}

(* The pinned weight whose node waited longest in the run. *)
(* Does the allocation pin any of this node's weights (whole or sliced)? *)
let pins_weight on_chip id =
  Metric.Item_set.exists
    (fun item ->
      match item with
      | Metric.Weight_of n -> n = id
      | Metric.Weight_slice { node; _ } -> node = id
      | Metric.Feature_value _ -> false)
    on_chip

let worst_waiting_weight run on_chip =
  Array.fold_left
    (fun best t ->
      let id = t.Engine.node_id in
      if t.Engine.wait > 0. && pins_weight on_chip id then
        match best with
        | Some (w, _) when w >= t.Engine.wait -> best
        | Some _ | None -> Some (t.Engine.wait, id)
      else best)
    None run.Engine.timings

let max_iterations = 16

let run ?prefetch metric ~on_chip =
  let simulate set = Engine.simulate ?prefetch metric ~on_chip:set in
  let initial = simulate on_chip in
  let rec loop set best_run unpinned iterations =
    if iterations >= max_iterations then (set, best_run, unpinned)
    else
      match worst_waiting_weight best_run set with
      | None -> (set, best_run, unpinned)
      | Some (_, node) ->
        let evicted =
          Metric.Item_set.filter
            (fun item ->
              match item with
              | Metric.Weight_of n -> n = node
              | Metric.Weight_slice { node = n; _ } -> n = node
              | Metric.Feature_value _ -> false)
            set
        in
        let candidate = Metric.Item_set.diff set evicted in
        let next = simulate candidate in
        if next.Engine.total < best_run.Engine.total -. 1e-15 then
          loop candidate next
            (Metric.Item_set.elements evicted @ unpinned)
            (iterations + 1)
        else (set, best_run, unpinned)
  in
  let set, best_run, unpinned = loop on_chip initial [] 0 in
  { on_chip = set;
    run = best_run;
    unpinned = List.rev unpinned;
    initial_total = initial.Engine.total;
    refined_total = best_run.Engine.total }
