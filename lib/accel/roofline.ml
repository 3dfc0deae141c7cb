module G = Dnn_graph.Graph
module Analysis = Dnn_graph.Analysis

type point = {
  node_id : int;
  layer_name : string;
  intensity : float;
  attainable_tops : float;
  roofline_bound : bool;
  tiled_memory_bound : bool;
}

let ridge_point cfg = Config.peak_ops cfg /. Config.interface_bandwidth cfg

let attainable_tops cfg intensity =
  let bw_bound = intensity *. Config.interface_bandwidth cfg in
  min (Config.peak_ops cfg) bw_bound /. 1e12

let points cfg g =
  let profiles = Latency.profile_graph cfg g in
  let dtype = cfg.Config.dtype in
  List.filter_map
    (fun nd ->
      let id = nd.G.id in
      let p = profiles.(id) in
      let moves_data =
        Array.length p.Latency.if_values > 0 || p.Latency.of_term > 0.
      in
      if not moves_data then None
      else
        let intensity = Analysis.op_intensity dtype g id in
        Some
          { node_id = id;
            layer_name = nd.G.node_name;
            intensity;
            attainable_tops = attainable_tops cfg intensity;
            roofline_bound = intensity < ridge_point cfg;
            tiled_memory_bound = Latency.is_memory_bound p })
    (G.nodes g)

let summary pts =
  let mb = List.length (List.filter (fun p -> p.tiled_memory_bound) pts) in
  let total = List.length pts in
  let fraction = if total = 0 then 0. else float_of_int mb /. float_of_int total in
  (mb, total, fraction)

let pp_point ppf p =
  Format.fprintf ppf "%-28s oi=%8.2f attainable=%6.3f Tops %s" p.layer_name
    p.intensity p.attainable_tops
    (if p.tiled_memory_bound then "MEM" else "cmp")
