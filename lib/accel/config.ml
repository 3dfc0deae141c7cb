type style = Umm | Lcmm

type t = {
  device : Fpga.Device.t;
  dtype : Tensor.Dtype.t;
  pe : Pe_array.t;
  tile : Tiling.t;
  freq_mhz : float;
  ddr_efficiency : float;
  burst_overhead : float;
  aux_ops_per_cycle : int;
  fused_eltwise : bool;
}

let default_freq dtype style =
  match dtype, style with
  | Tensor.Dtype.I8, Umm | Tensor.Dtype.I16, Umm -> 190.
  | Tensor.Dtype.I8, Lcmm | Tensor.Dtype.I16, Lcmm -> 180.
  | Tensor.Dtype.F32, Umm -> 170.
  | Tensor.Dtype.F32, Lcmm -> 160.

let make ?(device = Fpga.Device.vu9p) ?(ddr_efficiency = 0.70)
    ?(burst_overhead = 2e-7) ?(dsp_fraction = 0.83) ?tile ?freq_mhz
    ?(fused_eltwise = false) ~style dtype =
  let pe = Pe_array.default_for device dtype ~dsp_fraction in
  let tile =
    match tile with
    | Some t -> t
    | None -> Tiling.make ~tm:32 ~tn:64 ~th:28 ~tw:28
  in
  let freq_mhz =
    match freq_mhz with Some f -> f | None -> default_freq dtype style
  in
  { device; dtype; pe; tile; freq_mhz; ddr_efficiency; burst_overhead;
    aux_ops_per_cycle = 256; fused_eltwise }

let interface_bandwidth c =
  Fpga.Device.interface_bandwidth c.device *. c.ddr_efficiency

let macs_per_second c =
  float_of_int (Pe_array.macs_per_cycle c.pe) *. c.freq_mhz *. 1e6

let peak_ops c = 2. *. macs_per_second c

let compute_resources c =
  Fpga.Resource.make
    ~dsp:(Pe_array.dsp_usage c.dtype c.pe)
    ~bram36:(Tiling.bram_blocks c.dtype c.tile)
    ~luts:(Pe_array.lut_usage c.dtype c.pe)
    ()

let sram_budget_bytes c =
  let total = Fpga.Device.sram_bytes c.device in
  let tiles = Tiling.buffer_bytes c.dtype c.tile in
  let budget = int_of_float (0.90 *. float_of_int total) - tiles in
  max 0 budget

let pp ppf c =
  Format.fprintf ppf "%s %a pe=%a tile=(%a) %.0fMHz"
    c.device.Fpga.Device.device_name Tensor.Dtype.pp c.dtype Pe_array.pp c.pe
    Tiling.pp c.tile c.freq_mhz
