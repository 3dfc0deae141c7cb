let comparison_header =
  Printf.sprintf "%-14s %-4s %10s %7s %10s %7s %6s %6s %6s %8s" "model" "prec"
    "umm_ms" "tops" "lcmm_ms" "tops" "dsp%" "clb%" "sram%" "speedup"

let comparison_row c =
  Printf.sprintf "%-14s %-4s %10.3f %7.3f %10.3f %7.3f %6.0f %6.0f %6.0f %8.2f"
    c.Framework.model
    (Tensor.Dtype.to_string c.Framework.dtype)
    (c.Framework.umm.Framework.latency_seconds *. 1e3)
    c.Framework.umm.Framework.tops
    (c.Framework.lcmm.Framework.latency_seconds *. 1e3)
    c.Framework.lcmm.Framework.tops
    (100. *. c.Framework.lcmm.Framework.dsp_util)
    (100. *. c.Framework.lcmm.Framework.clb_util)
    (100. *. c.Framework.lcmm.Framework.sram_util)
    c.Framework.speedup

(* CSV fields here never contain commas or quotes, so quoting is not
   needed; keep the writer trivial. *)
let csv_of_comparisons ?fusion_ms comparisons =
  let base_header =
    "model,precision,umm_ms,umm_tops,lcmm_ms,lcmm_tops,dsp_util,clb_util,sram_util,speedup"
  in
  (* The fusion column is appended after every pre-existing field, so
     consumers that index the original ten columns keep working. *)
  let header =
    match fusion_ms with
    | None -> base_header
    | Some _ -> base_header ^ ",fusion_ms"
  in
  let row c =
    let base =
      Printf.sprintf "%s,%s,%.6f,%.6f,%.6f,%.6f,%.4f,%.4f,%.4f,%.4f"
        c.Framework.model
        (Tensor.Dtype.to_string c.Framework.dtype)
        (c.Framework.umm.Framework.latency_seconds *. 1e3)
        c.Framework.umm.Framework.tops
        (c.Framework.lcmm.Framework.latency_seconds *. 1e3)
        c.Framework.lcmm.Framework.tops
        c.Framework.lcmm.Framework.dsp_util
        c.Framework.lcmm.Framework.clb_util
        c.Framework.lcmm.Framework.sram_util
        c.Framework.speedup
    in
    match fusion_ms with
    | None -> base
    | Some f -> (
      match f c with
      | Some ms -> Printf.sprintf "%s,%.6f" base ms
      | None -> base ^ ",")
  in
  String.concat "\n" (header :: List.map row comparisons) ^ "\n"

let csv_of_design_points points =
  let header = "mask,sram_bytes,latency_ms,tops" in
  let row p =
    Printf.sprintf "%d,%d,%.6f,%.6f" p.Design_space.mask p.Design_space.sram_bytes
      (p.Design_space.latency *. 1e3)
      p.Design_space.tops
  in
  String.concat "\n" (header :: List.map row points) ^ "\n"

let write_text_file ~path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)
