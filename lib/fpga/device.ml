type t = {
  device_name : string;
  total : Resource.t;
  ddr_banks : int;
  ddr_bank_gbs : float;
  max_freq_mhz : float;
}

let vu9p =
  { device_name = "vu9p";
    total = Resource.make ~dsp:6840 ~bram36:2160 ~uram:960 ~luts:1_182_240 ();
    ddr_banks = 4;
    ddr_bank_gbs = 19.2;
    max_freq_mhz = 200. }

let zu9eg =
  { device_name = "zu9eg";
    total = Resource.make ~dsp:2520 ~bram36:912 ~uram:0 ~luts:274_080 ();
    ddr_banks = 1;
    ddr_bank_gbs = 19.2;
    max_freq_mhz = 250. }

let u250 =
  { device_name = "u250";
    total = Resource.make ~dsp:12288 ~bram36:2688 ~uram:1280 ~luts:1_728_000 ();
    ddr_banks = 4;
    ddr_bank_gbs = 19.2;
    max_freq_mhz = 300. }

let all = [ vu9p; zu9eg; u250 ]

let find name =
  let needle = String.lowercase_ascii name in
  List.find_opt (fun d -> d.device_name = needle) all

let aggregate_bandwidth d = float_of_int d.ddr_banks *. d.ddr_bank_gbs *. 1e9

let interface_bandwidth d = aggregate_bandwidth d /. 3.

let ddr_channels d = max 1 d.ddr_banks

let check_channels d c =
  let banks = ddr_channels d in
  if c >= 1 && c <= banks then Ok c
  else
    Error
      (Printf.sprintf "expected a count from 1 to %d (%s)" banks d.device_name)

let sram_bytes d = Resource.sram_bytes d.total

let pp ppf d =
  Format.fprintf ppf "%s %a %dxDDR@%.1fGB/s" d.device_name Resource.pp d.total
    d.ddr_banks d.ddr_bank_gbs
