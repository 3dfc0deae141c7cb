type t = { tm_unroll : int; tn_unroll : int; tsp_unroll : int }

let make ~tm_unroll ~tn_unroll ~tsp_unroll =
  if tm_unroll <= 0 || tn_unroll <= 0 || tsp_unroll <= 0 then
    invalid_arg "Pe_array.make: non-positive unroll factor";
  { tm_unroll; tn_unroll; tsp_unroll }

let macs_per_cycle a = a.tm_unroll * a.tn_unroll * a.tsp_unroll

let dsp_usage dtype a =
  int_of_float
    (ceil (float_of_int (macs_per_cycle a) *. Tensor.Dtype.dsp_cost_per_mac dtype))

(* Per-PE interconnect/accumulator logic plus a fixed control plane; the
   constants approximate the logic share of published systolic designs on
   the VU9P (60 %ish of the device at ~5600 PEs). *)
let lut_usage dtype a =
  let per_pe =
    match dtype with
    | Tensor.Dtype.I8 -> 50   (* packed pairs share one accumulator path *)
    | Tensor.Dtype.I16 -> 110
    | Tensor.Dtype.F32 -> 550 (* logic-assisted fp32 multiply-add *)
  in
  80_000 + (macs_per_cycle a * per_pe)

let pad dim unroll = (dim + unroll - 1) / unroll * unroll

let conv_cycles a ~m ~c ~hw ~k2 =
  let padded = pad m a.tm_unroll * pad c a.tn_unroll * pad hw a.tsp_unroll in
  padded * k2 / macs_per_cycle a

let default_for device dtype ~dsp_fraction =
  if dsp_fraction <= 0. || dsp_fraction > 1. then
    invalid_arg "Pe_array.default_for: dsp_fraction out of (0, 1]";
  let budget_dsp =
    int_of_float (dsp_fraction *. float_of_int device.Fpga.Device.total.Fpga.Resource.dsp)
  in
  let budget_macs =
    int_of_float (float_of_int budget_dsp /. Tensor.Dtype.dsp_cost_per_mac dtype)
  in
  let tm = 32 in
  (* Spatial unroll is capped at 32: the benchmark models' output maps
     (multiples/neighbourhoods of 7) pad acceptably against small factors,
     while a degenerate huge spatial unroll would waste most of the array
     on 7x7 layers.  Ties prefer the smaller spatial unroll. *)
  let candidates =
    List.filter_map
      (fun tn ->
        let tsp = min 32 (budget_macs / (tm * tn)) in
        if tsp >= 1 then Some { tm_unroll = tm; tn_unroll = tn; tsp_unroll = tsp }
        else None)
      [ 32; 16; 8; 4; 2; 1 ]
  in
  match candidates with
  | [] -> invalid_arg "Pe_array.default_for: DSP budget too small for any array"
  | first :: rest ->
    List.fold_left
      (fun best a ->
        if
          macs_per_cycle a > macs_per_cycle best
          || (macs_per_cycle a = macs_per_cycle best && a.tsp_unroll < best.tsp_unroll)
        then a
        else best)
      first rest

let pp ppf a =
  Format.fprintf ppf "%dx%dx%d(%d MAC/cyc)" a.tm_unroll a.tn_unroll a.tsp_unroll
    (macs_per_cycle a)
