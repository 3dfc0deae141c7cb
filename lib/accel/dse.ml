type result = {
  config : Config.t;
  umm_latency : float;
  resources : Fpga.Resource.t;
  table : Latency.table;
}

type designs = { umm : result; lcmm : result }

let candidate_tiles () =
  List.concat_map
    (fun tm ->
      List.concat_map
        (fun tn ->
          List.map (fun sp -> Tiling.make ~tm ~tn ~th:sp ~tw:sp) [ 7; 14; 28; 56 ])
        [ 16; 32; 64 ])
    [ 16; 32; 64 ]

(* Large parts close timing with the full 83 % DSP budget; smaller parts
   (or LUT-hungry precisions) need a smaller array, so the sweep also
   descends the DSP-budget ladder. *)
let dsp_fractions = [ 0.83; 0.6; 0.4; 0.25; 0.12 ]

let better dtype a b =
  if a.umm_latency < b.umm_latency then a
  else if b.umm_latency < a.umm_latency then b
  else if
    Tiling.buffer_bytes dtype a.config.Config.tile
    <= Tiling.buffer_bytes dtype b.config.Config.tile
  then a
  else b

(* The one sweep: the best design point of each of [styles].  The styles
   differ only in their clock, so the fit of a (DSP fraction, tile)
   candidate and a node's streaming time on a tile (tile, bandwidth, burst
   overhead) are shared: one fit check per candidate, one streaming sweep
   over the tiles with a fitting candidate, and one pass over the nodes
   per fitting candidate that sums every style's total.  Only the compute
   times (PE array and clock), swept once per fraction that has a fitting
   candidate, are per style.  Candidates are folded in grid order,
   fractions outer and tiles inner, so each style's choice and tie-break
   are those of a sweep run for it alone. *)
let sweep ~device styles dtype g =
  let tiles = Array.of_list (candidate_tiles ()) in
  let table = Latency.table dtype ~fused_eltwise:false g in
  (* Per DSP fraction: each style's design, and each tile's resources when
     its candidate fits the device. *)
  let fractions =
    List.map
      (fun dsp_fraction ->
        let bases =
          Array.map
            (fun style -> Config.make ~device ~dsp_fraction ~style dtype)
            styles
        in
        let fit tile =
          let r = Config.compute_resources { bases.(0) with Config.tile } in
          if Fpga.Resource.fits r ~within:device.Fpga.Device.total then Some r
          else None
        in
        (bases, Array.map fit tiles))
      dsp_fractions
  in
  let swept =
    List.filter
      (fun i -> List.exists (fun (_, fit) -> Option.is_some fit.(i)) fractions)
      (List.init (Array.length tiles) Fun.id)
  in
  let streaming =
    Latency.streaming_times (Config.make ~device ~style:styles.(0) dtype) table
      (Array.of_list (List.map (Array.get tiles) swept))
  in
  let row = Array.make (Array.length tiles) (-1) in
  List.iteri (fun r i -> row.(i) <- r) swept;
  let best = Array.make (Array.length styles) None in
  (* A style's sum that passes its best total can neither win nor tie, so
     the pass may stop adding to it there. *)
  let bounds = Array.make (Array.length styles) infinity in
  let totals = Array.make (Array.length styles) 0. in
  let fold bases compute i tile = function
    | None -> ()
    | Some resources ->
      Latency.umm_totals_until ~bounds ~compute ~streaming:streaming.(row.(i))
        totals;
      Array.iteri
        (fun s total ->
          if not (total > bounds.(s)) then begin
            let candidate =
              { config = { bases.(s) with Config.tile }; umm_latency = total;
                resources; table }
            in
            let b =
              match best.(s) with
              | None -> candidate
              | Some b -> better dtype b candidate
            in
            best.(s) <- Some b;
            bounds.(s) <- b.umm_latency
          end)
        totals
  in
  List.iter
    (fun (bases, fit) ->
      if Array.exists Option.is_some fit then
        let compute =
          Array.map (fun base -> Latency.compute_times base table) bases
        in
        Array.iteri (fun i tile -> fold bases compute i tile fit.(i)) tiles)
    fractions;
  Array.map
    (function
      | Some r -> r
      | None -> invalid_arg "Dse.run: no tile configuration fits the device")
    best

let run ?(device = Fpga.Device.vu9p) ~style dtype g =
  (sweep ~device [| style |] dtype g).(0)

let run_both ?(device = Fpga.Device.vu9p) dtype g =
  let best = sweep ~device [| Config.Umm; Config.Lcmm |] dtype g in
  { umm = best.(0); lcmm = best.(1) }
