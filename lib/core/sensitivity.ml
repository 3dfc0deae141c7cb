type point = {
  knob_value : float;
  umm_latency : float;
  lcmm_latency : float;
  speedup : float;
}

(* One fixed tile shape keeps the sweep about the memory system rather
   than about re-tiling; DSE would partially mask each knob. *)
let sweep ~make_config g values =
  List.map
    (fun value ->
      let umm_cfg = make_config Accel.Config.Umm value in
      let umm_latency =
        Accel.Latency.umm_total (Accel.Latency.profile_graph umm_cfg g)
      in
      let lcmm_cfg = make_config Accel.Config.Lcmm value in
      let plan = Framework.plan lcmm_cfg g in
      let lcmm_latency = plan.Framework.predicted_latency in
      { knob_value = value;
        umm_latency;
        lcmm_latency;
        speedup = umm_latency /. lcmm_latency })
    values

let tile_for ~umm_tile ~lcmm_tile = function
  | Accel.Config.Umm -> umm_tile
  | Accel.Config.Lcmm -> lcmm_tile

let ddr_efficiency_sweep ?umm_tile ?lcmm_tile dtype g =
  let make_config style value =
    Accel.Config.make ?tile:(tile_for ~umm_tile ~lcmm_tile style)
      ~ddr_efficiency:value ~style dtype
  in
  sweep ~make_config g [ 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let burst_overhead_sweep ?umm_tile ?lcmm_tile dtype g =
  let make_config style value =
    Accel.Config.make ?tile:(tile_for ~umm_tile ~lcmm_tile style)
      ~burst_overhead:value ~style dtype
  in
  sweep ~make_config g [ 0.; 1e-7; 2e-7; 4e-7; 7e-7; 1e-6 ]

let pp_points ppf label points =
  Format.fprintf ppf "%12s %10s %10s %8s@." label "UMM ms" "LCMM ms" "speedup";
  List.iter
    (fun p ->
      Format.fprintf ppf "%12.3g %10.3f %10.3f %8.2f@." p.knob_value
        (p.umm_latency *. 1e3) (p.lcmm_latency *. 1e3) p.speedup)
    points
