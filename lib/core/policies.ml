type policy =
  | Umm_policy
  | Greedy
  | Exact_small
  | All_features
  | Stream_tile
  | Dnnk_policy of Dnnk.compensation

type outcome = {
  policy_name : string;
  on_chip : Metric.Item_set.t;
  latency : float;
  used_bytes : int;
  feasible : bool;
}

let policy_name = function
  | Umm_policy -> "umm"
  | Greedy -> "greedy"
  | Exact_small -> "exact"
  | All_features -> "all-features"
  | Stream_tile -> "stream-tile"
  | Dnnk_policy Dnnk.Table_approx -> "dnnk"
  | Dnnk_policy Dnnk.Exact_iterative -> "dnnk-exact"

let vbuf_blocks vb = Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes

let bytes_of_vbufs vbufs =
  List.fold_left (fun acc vb -> acc + (vbuf_blocks vb * Dnnk.block_bytes)) 0 vbufs

let outcome_of_vbufs name metric ~capacity_bytes chosen =
  let on_chip =
    Metric.Item_set.of_list (List.concat_map (fun vb -> vb.Vbuffer.members) chosen)
  in
  let used_bytes = bytes_of_vbufs chosen in
  { policy_name = name;
    on_chip;
    latency = Metric.total_latency metric ~on_chip;
    used_bytes;
    feasible = used_bytes <= capacity_bytes }

(* Lazy greedy: repeatedly take the buffer with the best marginal
   gain-per-block ratio that still fits. *)
let greedy metric ~capacity_bytes vbufs =
  let capacity = capacity_bytes / Dnnk.block_bytes in
  (* The chosen buffers' items; each pick adds its buffer's. *)
  let on = Metric.mark (Metric.item_count metric) in
  let members_ix vb = List.map (Metric.item_index metric) vb.Vbuffer.members in
  let rec loop chosen used remaining =
    let scored =
      List.filter_map
        (fun vb ->
          let blocks = vbuf_blocks vb in
          if used + blocks > capacity then None
          else
            let adding = List.filter (fun i -> not (Metric.mem on i)) (members_ix vb) in
            let gain =
              Metric.swing_gain_on metric on adding
                (Metric.nodes_affected metric vb.Vbuffer.members)
            in
            if gain <= 0. then None
            else Some (gain /. float_of_int blocks, vb, blocks))
        remaining
    in
    match scored with
    | [] -> chosen
    | first :: rest ->
      let _, best, blocks =
        List.fold_left
          (fun ((br, _, _) as b) ((r, _, _) as c) -> if r > br then c else b)
          first rest
      in
      List.iter (Metric.add on) (members_ix best);
      loop (best :: chosen) (used + blocks)
        (List.filter (fun vb -> vb.Vbuffer.vbuf_id <> best.Vbuffer.vbuf_id) remaining)
  in
  loop [] 0 vbufs

let exact_small metric ~capacity_bytes vbufs =
  let n = List.length vbufs in
  if n > 20 then
    invalid_arg
      (Printf.sprintf "Policies: exact enumeration limited to 20 buffers, got %d" n);
  let arr = Array.of_list vbufs in
  let capacity = capacity_bytes / Dnnk.block_bytes in
  let members_ix =
    Array.map
      (fun vb -> List.map (Metric.item_index metric) vb.Vbuffer.members)
      arr
  in
  let on = Metric.mark (Metric.item_count metric) in
  let best = ref ([], infinity) in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen = ref [] and blocks = ref 0 in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then begin
        chosen := arr.(i) :: !chosen;
        blocks := !blocks + vbuf_blocks arr.(i)
      end
    done;
    if !blocks <= capacity then begin
      Metric.clear on;
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 then List.iter (Metric.add on) members_ix.(i)
      done;
      let lat = Metric.total_latency_on metric on in
      if lat < snd !best then best := (!chosen, lat)
    end
  done;
  fst !best

let feature_items metric =
  Metric.eligible_items metric ~memory_bound_only:false
  |> List.filter (function
       | Metric.Feature_value _ -> true
       | Metric.Weight_of _ | Metric.Weight_slice _ -> false)

let run metric ~dtype ~capacity_bytes vbufs policy =
  let name = policy_name policy in
  match policy with
  | Umm_policy -> outcome_of_vbufs name metric ~capacity_bytes []
  | Greedy ->
    outcome_of_vbufs name metric ~capacity_bytes
      (greedy metric ~capacity_bytes vbufs)
  | Exact_small ->
    outcome_of_vbufs name metric ~capacity_bytes
      (exact_small metric ~capacity_bytes vbufs)
  | Dnnk_policy compensation ->
    let r = Dnnk.allocate ~compensation metric ~capacity_bytes vbufs in
    outcome_of_vbufs name metric ~capacity_bytes r.Dnnk.chosen
  | All_features ->
    (* Cloud-DNN style: pin every intermediate feature map, capacity be
       damned; feasibility reports whether the device could hold it. *)
    let items = feature_items metric in
    let on_chip = Metric.Item_set.of_list items in
    let used_bytes =
      List.fold_left
        (fun acc it ->
          acc
          + (Dnnk.blocks_of_bytes (Metric.item_size_bytes dtype metric it)
            * Dnnk.block_bytes))
        0 items
    in
    { policy_name = name;
      on_chip;
      latency = Metric.total_latency metric ~on_chip;
      used_bytes;
      feasible = used_bytes <= capacity_bytes }
  | Stream_tile ->
    (* TGPA style: inter-stage features stream tile-by-tile between
       pipelined accelerators and never touch DDR; weights stream.  The
       on-chip cost is a double buffer of the two largest inter-stage
       values. *)
    let items = feature_items metric in
    let on_chip = Metric.Item_set.of_list items in
    let sizes =
      List.map (fun it -> Metric.item_size_bytes dtype metric it) items
      |> List.sort (fun a b -> compare b a)
    in
    let used_bytes =
      match sizes with a :: b :: _ -> a + b | [ a ] -> a | [] -> 0
    in
    { policy_name = name;
      on_chip;
      latency = Metric.total_latency metric ~on_chip;
      used_bytes;
      feasible = used_bytes <= capacity_bytes }
