(* Walk-through of the paper's running example (Fig. 3, 5 and 6): a
   six-convolution snippet in the style of Inception-v4's inception_c1
   block.  Shows the memory footprint under uniform management, the
   feature interference graph and its coloring, the weight prefetching
   dependence graph, and the DNNK allocation.

   Run with:  dune exec examples/inception_block.exe *)

module B = Dnn_graph.Builder

(* Fig. 3(a): six convolutions C1..C6 connected by feature values.  C1,
   C2 and C4 read the block input; C3 consumes C2's output; C5 consumes
   C4's; C6 concatenates the branch outputs. *)
let snippet () =
  let b = B.create () in
  let x = B.input b ~name:"block_in" ~channels:1536 ~height:8 ~width:8 () in
  let c1 = B.conv b ~name:"C1" ~kernel:(1, 1) ~out_channels:256 x in
  let c2 = B.conv b ~name:"C2" ~kernel:(1, 1) ~out_channels:384 x in
  let c3 = B.conv b ~name:"C3" ~kernel:(3, 3) ~out_channels:512 c2 in
  let c4 = B.conv b ~name:"C4" ~kernel:(1, 1) ~out_channels:384 x in
  let c5 = B.conv b ~name:"C5" ~kernel:(3, 3) ~out_channels:512 c4 in
  let cat = B.concat b ~name:"branches" [ c1; c3; c5 ] in
  let c6 = B.conv b ~name:"C6" ~kernel:(1, 1) ~out_channels:1536 cat in
  ignore c6;
  B.finish b

let () =
  let g = snippet () in
  let dtype = Tensor.Dtype.I16 in
  let cfg = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let profiles = Accel.Latency.profile_graph cfg g in
  let metric = Lcmm.Metric.build g profiles in

  Format.printf "== the computation graph ==@.%a@." Dnn_graph.Graph.pp_summary g;

  (* Uniform memory management: every tensor streams from DDR. *)
  Format.printf "== uniform memory management ==@.";
  Array.iter
    (fun p ->
      let id = p.Accel.Latency.node_id in
      let nd = Dnn_graph.Graph.node g id in
      Format.printf "  %-9s lat=%8.1f us (compute %8.1f us)%s@."
        nd.Dnn_graph.Graph.node_name
        (Accel.Latency.umm_node_latency p *. 1e6)
        (p.Accel.Latency.latc *. 1e6)
        (if Accel.Latency.is_memory_bound p then "  <- memory bound" else ""))
    profiles;

  (* Fig. 5: liveness intervals and the interference relation. *)
  let items = Array.of_list (Lcmm.Metric.eligible_items metric ~memory_bound_only:true) in
  let intervals =
    Array.map (Lcmm.Liveness.item_interval g ~prefetch_source:(fun _ -> None)) items
  in
  Format.printf "== lifespans of eligible tensors ==@.";
  Array.iteri
    (fun i item ->
      Format.printf "  %a live %a  (%d B)@." Lcmm.Metric.pp_item item
        Lcmm.Liveness.pp intervals.(i)
        (Lcmm.Metric.item_size_bytes dtype metric item))
    items;

  let is_weight = function
    | Lcmm.Metric.Weight_of _ | Lcmm.Metric.Weight_slice _ -> true
    | Lcmm.Metric.Feature_value _ -> false
  in
  let never_share_class item = if is_weight item then 1 else 0 in
  let interference =
    Lcmm.Interference.build ~never_share_class ~items ~intervals ()
  in
  let sizes = Array.map (Lcmm.Metric.item_size_bytes dtype metric) items in
  let vbufs = Lcmm.Coloring.color interference ~sizes in
  Format.printf "== virtual buffers after coloring ==@.";
  List.iter (fun vb -> Format.printf "  %a@." Lcmm.Vbuffer.pp vb) vbufs;

  (* Fig. 6: prefetch edges for the weight tensors. *)
  let targets =
    Array.to_list items
    |> List.filter_map (function
         | Lcmm.Metric.Weight_of n | Lcmm.Metric.Weight_slice { node = n; _ } ->
           Some n
         | Lcmm.Metric.Feature_value _ -> None)
  in
  if targets <> [] then begin
    let pdg =
      Lcmm.Prefetch.build metric ~targets ~node_latency:(fun id ->
          Accel.Latency.umm_node_latency profiles.(id))
    in
    Format.printf "== prefetching dependence graph ==@.%a" Lcmm.Prefetch.pp pdg
  end;

  (* DNNK under an artificially small SRAM so spilling is visible. *)
  let capacity_bytes = 512 * 1024 in
  let result = Lcmm.Dnnk.allocate metric ~capacity_bytes vbufs in
  Format.printf "== DNNK with %d KiB of SRAM ==@." (capacity_bytes / 1024);
  List.iter
    (fun vb -> Format.printf "  on-chip : %a@." Lcmm.Vbuffer.pp vb)
    result.Lcmm.Dnnk.chosen;
  List.iter
    (fun vb -> Format.printf "  spilled : %a@." Lcmm.Vbuffer.pp vb)
    result.Lcmm.Dnnk.spilled;
  Format.printf "latency: UMM %.1f us -> LCMM %.1f us@."
    (Accel.Latency.umm_total profiles *. 1e6)
    (result.Lcmm.Dnnk.predicted_latency *. 1e6)
