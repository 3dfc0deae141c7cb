module G = Dnn_graph.Graph

type block_row = {
  block : string;
  seconds : float;
  macs : int;
  tops : float;
}

let per_block g run =
  let row block =
    let ids = G.nodes_of_block g block in
    let seconds =
      List.fold_left
        (fun acc id ->
          let t = run.Engine.timings.(id) in
          acc +. (t.Engine.finish -. t.Engine.start) +. t.Engine.wait)
        0. ids
    in
    let macs = List.fold_left (fun acc id -> acc + G.macs g id) 0 ids in
    let tops =
      if seconds <= 0. then 0. else 2. *. float_of_int macs /. seconds /. 1e12
    in
    { block; seconds; macs; tops }
  in
  List.map row (G.blocks g)

let pp_rows ppf rows =
  Format.fprintf ppf "%-16s %10s %10s %8s@." "block" "time(us)" "macs(M)" "Tops";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-16s %10.1f %10.2f %8.3f@." r.block (r.seconds *. 1e6)
        (float_of_int r.macs /. 1e6) r.tops)
    rows
