type result = {
  chosen : Vbuffer.t list;
  on_chip : Metric.Item_set.t;
  latency : float;
  proven_optimal : bool;
  nodes_explored : int;
}

(* Depth-first branch and bound over the buffers in decreasing
   gain-density order.  State: index into the buffer array, the chosen
   set so far, remaining capacity.  Bound: current total gain + for every
   graph node still touchable by an open buffer, the node's remaining
   reduction potential (its latency under the current set minus its
   compute floor) — an upper bound because per-node reduction can never
   dig below the compute floor.  The chosen set lives in one mark that
   a taken buffer's new items enter for its subtree and leave after. *)
let solve ?(node_budget = 200_000) metric ~capacity_bytes vbufs =
  if capacity_bytes < 0 then invalid_arg "Exact.solve: negative capacity";
  let capacity = capacity_bytes / Dnnk.block_bytes in
  let on = Metric.mark (Metric.item_count metric) in
  let members_ix vb = List.map (Metric.item_index metric) vb.Vbuffer.members in
  (* Order by static gain density: good incumbents early = strong pruning. *)
  let scored =
    List.map
      (fun vb ->
        Metric.clear on;
        List.iter (Metric.add on) (members_ix vb);
        let gain =
          Metric.static_gain_on metric on
            (Metric.nodes_affected metric vb.Vbuffer.members)
        in
        let blocks = max 1 (Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes) in
        (gain /. float_of_int blocks, vb))
      vbufs
    |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
  in
  let arr = Array.of_list (List.map snd scored) in
  let n = Array.length arr in
  let blocks = Array.map (fun vb -> Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes) arr in
  let arr_ix = Array.map members_ix arr in
  let arr_affected =
    Array.map (fun vb -> Metric.nodes_affected metric vb.Vbuffer.members) arr
  in
  (* Graph nodes each suffix of buffers can still touch. *)
  let touched_from = Array.make (n + 1) [] in
  for i = n - 1 downto 0 do
    let here =
      List.concat_map (Metric.affected_nodes metric) arr.(i).Vbuffer.members
    in
    touched_from.(i) <- List.sort_uniq compare (here @ touched_from.(i + 1))
  done;
  let umm = Accel.Latency.umm_total metric.Metric.profiles in
  (* Seed the incumbent with DNNK's heuristic solution: the search then
     starts from a strong bound and can only improve on it, so even a
     budget-truncated run never loses to the heuristic. *)
  let seed = Dnnk.allocate metric ~capacity_bytes vbufs in
  let best_latency = ref (min umm seed.Dnnk.predicted_latency) in
  let best_set = ref seed.Dnnk.chosen in
  let explored = ref 0 in
  let budget_hit = ref false in
  Metric.clear on;
  let rec branch index chosen free gain =
    if !explored >= node_budget then budget_hit := true
    else begin
      incr explored;
      let latency_now = umm -. gain in
      if latency_now < !best_latency -. 1e-15 then begin
        best_latency := latency_now;
        best_set := chosen
      end;
      if index < n then begin
        (* Admissible optimism for the remaining suffix. *)
        let potential =
          List.fold_left
            (fun acc node ->
              acc
              +. Metric.node_latency_on metric on node
              -. metric.Metric.profiles.(node).Accel.Latency.latc)
            0. touched_from.(index)
        in
        if latency_now -. potential < !best_latency -. 1e-15 then begin
          (* Take the buffer first (best-gain order), then skip it. *)
          if blocks.(index) <= free then begin
            let adding =
              List.filter (fun i -> not (Metric.mem on i)) arr_ix.(index)
            in
            let extra =
              Metric.swing_gain_on metric on adding arr_affected.(index)
            in
            List.iter (Metric.add on) adding;
            branch (index + 1) (arr.(index) :: chosen)
              (free - blocks.(index)) (gain +. extra);
            List.iter (Metric.remove on) adding
          end;
          branch (index + 1) chosen free gain
        end
      end
    end
  in
  branch 0 [] capacity 0.;
  let chosen = !best_set in
  let on_chip =
    Metric.Item_set.of_list (List.concat_map (fun vb -> vb.Vbuffer.members) chosen)
  in
  { chosen;
    on_chip;
    latency = Metric.total_latency metric ~on_chip;
    proven_optimal = not !budget_hit;
    nodes_explored = !explored }
