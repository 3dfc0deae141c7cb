module Latency = Accel.Latency

type t = {
  if_bytes : int;
  wt_bytes : int;
  of_bytes : int;
}

let total_bytes t = t.if_bytes + t.wt_bytes + t.of_bytes

let if_stream_bytes ~on_chip (p : Latency.profile) =
  let sum = ref 0 in
  for j = 0 to Array.length p.Latency.if_values - 1 do
    let v = p.Latency.if_values.(j) in
    if not (Metric.Item_set.mem (Metric.Feature_value v) on_chip) then
      sum := !sum + p.Latency.if_bytes.(j)
  done;
  !sum

let of_allocation metric ~on_chip =
  let on item = Metric.Item_set.mem item on_chip in
  let acc = ref { if_bytes = 0; wt_bytes = 0; of_bytes = 0 } in
  Array.iter
    (fun p ->
      let id = p.Latency.node_id in
      let if_bytes = if_stream_bytes ~on_chip p in
      (* Weights: pinned tensors load once (prefetch); slices split the
         tensor between the two regimes. *)
      let k = metric.Metric.slices.(id) in
      let wt_bytes =
        if p.Latency.wt_stream_bytes = 0 then 0
        else if k = 1 then
          if on (Metric.Weight_of id) then p.Latency.wt_once_bytes
          else p.Latency.wt_stream_bytes
        else begin
          let pinned = ref 0 in
          for index = 0 to k - 1 do
            if on (Metric.Weight_slice { node = id; index; of_k = k }) then
              incr pinned
          done;
          (p.Latency.wt_once_bytes * !pinned / k)
          + (p.Latency.wt_stream_bytes * (k - !pinned) / k)
        end
      in
      let of_bytes =
        if on (Metric.Feature_value id) then 0 else p.Latency.of_stream_bytes
      in
      acc :=
        { if_bytes = !acc.if_bytes + if_bytes;
          wt_bytes = !acc.wt_bytes + wt_bytes;
          of_bytes = !acc.of_bytes + of_bytes })
    metric.Metric.profiles;
  !acc

let umm metric = of_allocation metric ~on_chip:Metric.Item_set.empty

type energy = {
  ddr_joules : float;
  sram_joules : float;
  compute_joules : float;
}

let total_joules e = e.ddr_joules +. e.sram_joules +. e.compute_joules

type energy_model = {
  ddr_pj_per_byte : float;
  sram_pj_per_byte : float;
  mac_pj : float;
}

(* Order-of-magnitude constants from the accelerator-efficiency
   literature (Horowitz ISSCC'14 scaled to bytes): DDR access dominates
   SRAM by two orders of magnitude, which is the entire energy story of
   on-chip reuse. *)
let default_energy_model dtype =
  { ddr_pj_per_byte = 160.;
    sram_pj_per_byte = 1.2;
    mac_pj =
      (match dtype with
      | Tensor.Dtype.I8 -> 0.3
      | Tensor.Dtype.I16 -> 1.0
      | Tensor.Dtype.F32 -> 4.6) }

let energy_of_allocation metric ~dtype ~on_chip =
  let model = default_energy_model dtype in
  let traffic = of_allocation metric ~on_chip in
  let baseline = umm metric in
  (* Everything the UMM design would have streamed still reaches the
     datapath; the pinned share is served from SRAM instead of DDR. *)
  let sram_bytes = total_bytes baseline - total_bytes traffic in
  let macs = Dnn_graph.Graph.total_macs metric.Metric.graph in
  { ddr_joules = float_of_int (total_bytes traffic) *. model.ddr_pj_per_byte *. 1e-12;
    sram_joules = float_of_int (max 0 sram_bytes) *. model.sram_pj_per_byte *. 1e-12;
    compute_joules = float_of_int macs *. model.mac_pj *. 1e-12 }
