type point = {
  mask : int;
  sram_bytes : int;
  latency : float;
  tops : float;
}

let block_items metric ~block =
  let g = metric.Metric.graph in
  let in_block id = (Dnn_graph.Graph.node g id).Dnn_graph.Graph.block = Some block in
  Metric.eligible_items metric ~memory_bound_only:true
  |> List.filter (fun item ->
         match item with
         | Metric.Feature_value v -> in_block v
         | Metric.Weight_of n | Metric.Weight_slice { node = n; _ } -> in_block n)

let sweep metric ~dtype ~total_macs ~blocks =
  let n = List.length blocks in
  if n > 20 then invalid_arg "Design_space.sweep: too many blocks";
  let arr = Array.of_list blocks in
  let total = 1 lsl n in
  let points = ref [] in
  let on = Metric.mark (Metric.item_count metric) in
  for mask = 0 to total - 1 do
    let items = ref [] in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then items := snd arr.(i) @ !items
    done;
    Metric.mark_set metric on (Metric.Item_set.of_list !items);
    let latency = Metric.total_latency_on metric on in
    let sram_bytes =
      List.fold_left
        (fun acc it ->
          acc
          + (Dnnk.blocks_of_bytes (Metric.item_size_bytes dtype metric it)
            * Dnnk.block_bytes))
        0 !items
    in
    points :=
      { mask;
        sram_bytes;
        latency;
        tops = 2. *. float_of_int total_macs /. latency /. 1e12 }
      :: !points
  done;
  List.rev !points

let pareto points =
  let sorted =
    List.sort
      (fun a b ->
        match compare a.sram_bytes b.sram_bytes with
        | 0 -> compare a.latency b.latency
        | c -> c)
      points
  in
  let rec keep best acc = function
    | [] -> List.rev acc
    | p :: rest ->
      if p.latency < best then keep p.latency (p :: acc) rest
      else keep best acc rest
  in
  keep infinity [] sorted
