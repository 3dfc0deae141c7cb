module G = Dnn_graph.Graph
module Values = Dnn_graph.Values
module Op = Dnn_graph.Op
module Shape = Tensor.Shape
module Metric = Lcmm.Metric
module Latency = Accel.Latency
module Pool = Lcmm.Pool

type segment = {
  first : int;
  last : int;
  internal : int list;
  scales : (int * float) list;
  slab_bytes : int;
  benefit_seconds : float;
  ddr_bytes_saved : int;
}

type result = {
  segments : segment list;
  total_benefit : float;
  evaluated : int;
}

let empty = { segments = []; total_benefit = 0.; evaluated = 0 }

(* Double-buffered row-stripe footprint of one internal value: the
   consumer works tile_th output rows at a time, so 2 x tile_th rows of
   the value suffice between producer and consumer — capped at the full
   tensor (a value smaller than the stripe simply stays whole, which is
   what makes a whole-graph segment under huge SRAM subsume the
   Stream_tile design style). *)
let slab_bytes dtype shape ~tile_th =
  let full = Shape.size_bytes dtype shape in
  match Shape.as_feature shape with
  | None -> full
  | Some f ->
    let rows = min tile_th f.Shape.height in
    let stripe =
      2 * Shape.size_bytes dtype
            (Shape.feature ~channels:f.Shape.channels ~height:rows
               ~width:f.Shape.width)
    in
    min full stripe

let kernel_h_minus_1 op =
  match op with
  | Op.Conv c -> fst c.Op.kernel - 1
  | Op.Pool p -> if p.Op.global then 0 else fst p.Op.pool_kernel - 1
  | Op.Input _ | Op.Eltwise_add | Op.Concat | Op.Upsample _ | Op.Dense _ -> 0

let is_barrier op =
  match op with
  | Op.Input _ | Op.Dense _ -> true
  | Op.Conv _ | Op.Pool _ | Op.Eltwise_add | Op.Concat | Op.Upsample _ -> false

let search ~max_segment ~headroom_bytes ~tile_th ~dtype metric ~on_chip =
  let g = metric.Metric.graph in
  let profiles = metric.Metric.profiles in
  let n = G.node_count g in
  if n = 0 || max_segment < 2 || headroom_bytes <= 0 then empty
  else begin
    let barrier = Array.init n (fun i -> is_barrier (G.node g i).G.op) in
    let is_val = Array.init n (fun i -> Values.is_value g i) in
    let base = Metric.mark (Metric.item_count metric) in
    Metric.mark_set metric base on_chip;
    let pinned = Array.init n (Metric.mem base) in
    (* Last consumer of each value, or max_int when it has none (a graph
       output: it must reach DDR, so it can never be segment-internal
       and any segment strictly containing it is illegal). *)
    let need = Array.make n max_int in
    for v = 0 to n - 1 do
      if is_val.(v) && metric.Metric.consumers.(v) <> [] then
        need.(v) <- metric.Metric.last_use.(v)
    done;
    let slab =
      Array.init n (fun v ->
          if is_val.(v) then slab_bytes dtype (G.output_shape g v) ~tile_th
          else 0)
    in
    (* Prefix sums of (kernel_h - 1): the halo factor of member m inside
       [_, hi] is (sum over (m..hi] of kh-1) / tile_th. *)
    let khp = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      khp.(i + 1) <- khp.(i) + kernel_h_minus_1 (G.node g i).G.op
    done;
    let scale_of m hi =
      1. +. (float_of_int (khp.(hi + 1) - khp.(m + 1)) /. float_of_int tile_th)
    in
    let base_lat = Array.init n (Metric.node_latency_on metric base) in
    (* DDR bytes value v moves under the base allocation: its producer's
       write-back plus every consumer's streamed read.  Only consumers
       stream a value, so one pass over every input term sums the
       reads. *)
    let reads = Array.make n 0 in
    Array.iter
      (fun p ->
        Array.iteri
          (fun j v -> reads.(v) <- reads.(v) + p.Latency.if_bytes.(j))
          p.Latency.if_values)
      profiles;
    let value_ddr_bytes v =
      if pinned.(v) then 0
      else
        let p = profiles.(v) in
        match p.Latency.of_value with
        | Some v' when v' = v -> p.Latency.of_stream_bytes + reads.(v)
        | _ -> reads.(v)
    in
    (* All legal, strictly beneficial candidate segments starting at
       [lo], priced exactly.  Legality and the slab sum extend
       incrementally with [hi]; the escape rule does not (a consumer
       beyond today's [hi] may fall inside tomorrow's), so [req] tracks
       the furthest consumer any interior value needs covered.  [fused]
       holds the base allocation plus today's interior values, which
       leave it again before the next start. *)
    let candidates_at fused lo =
      if barrier.(lo) then []
      else begin
        let acc = ref [] in
        let req = ref 0 in
        let slabs = ref 0 in
        let internal_rev = ref [] in
        let hi = ref (lo + 1) in
        let stop = ref false in
        while (not !stop) && !hi <= min (n - 1) (lo + max_segment - 1) do
          let h = !hi in
          if barrier.(h) then stop := true
          else begin
            (* Node h-1's value just became interior. *)
            let v = h - 1 in
            if is_val.(v) then begin
              req := max !req need.(v);
              if not pinned.(v) then begin
                slabs := !slabs + slab.(v);
                internal_rev := v :: !internal_rev;
                Metric.add fused v
              end
            end;
            if !req = max_int || !slabs > headroom_bytes then stop := true
            else begin
              if !req <= h && !internal_rev <> [] then begin
                let internal = List.rev !internal_rev in
                let scales = ref [] in
                let benefit = ref 0. in
                for m = h downto lo do
                  let s = scale_of m h in
                  scales := (m, s) :: !scales;
                  let lat =
                    Float.max
                      (Metric.node_latency_on metric fused m)
                      (profiles.(m).Latency.latc *. s)
                  in
                  benefit := !benefit +. (base_lat.(m) -. lat)
                done;
                if !benefit > 0. then
                  acc :=
                    { first = lo;
                      last = h;
                      internal;
                      scales = !scales;
                      slab_bytes = !slabs;
                      benefit_seconds = !benefit;
                      ddr_bytes_saved =
                        List.fold_left (fun a v -> a + value_ddr_bytes v) 0 internal }
                    :: !acc
              end;
              incr hi
            end
          end
        done;
        List.iter (Metric.remove fused) !internal_rev;
        List.rev !acc
      end
    in
    let per_start = Array.init n (candidates_at base) in
    let evaluated = Array.fold_left (fun a l -> a + List.length l) 0 per_start in
    (* Candidates ending at each position, in increasing-[first] order,
       for the cut DP below. *)
    let by_last = Array.make n [] in
    for lo = n - 1 downto 0 do
      List.iter (fun c -> by_last.(c.last) <- c :: by_last.(c.last)) per_start.(lo)
    done;
    (* dp.(i) = best benefit covering nodes [0, i); strict improvement
       only, so ties deterministically keep the unfused (or
       earlier-found) choice. *)
    let dp = Array.make (n + 1) 0. in
    let choice = Array.make (n + 1) None in
    for i = 0 to n - 1 do
      dp.(i + 1) <- dp.(i);
      List.iter
        (fun c ->
          let v = dp.(c.first) +. c.benefit_seconds in
          if v > dp.(i + 1) then begin
            dp.(i + 1) <- v;
            choice.(i + 1) <- Some c
          end)
        by_last.(i)
    done;
    let segments = ref [] in
    let i = ref n in
    while !i > 0 do
      match choice.(!i) with
      | None -> decr i
      | Some c ->
        segments := c :: !segments;
        i := c.first
    done;
    { segments = !segments; total_benefit = dp.(n); evaluated }
  end
