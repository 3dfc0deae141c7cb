module G = Dnn_graph.Graph
module Values = Dnn_graph.Values
module Latency = Accel.Latency
module Metric = Lcmm.Metric
module Liveness = Lcmm.Liveness
module Interference = Lcmm.Interference
module Coloring = Lcmm.Coloring
module Prefetch = Lcmm.Prefetch
module Vbuffer = Lcmm.Vbuffer
module Dnnk = Lcmm.Dnnk
module Exact = Lcmm.Exact
module Splitting = Lcmm.Splitting
module Framework = Lcmm.Framework

(* Relative tolerance on latency comparisons: totals are O(1e-3) s and
   every quantity derives from the same float pipeline, so 1e-9 of the
   UMM total separates real violations from rounding. *)
let rel_eps = 1e-9

(* DNNK-vs-exact quality bounds, calibrated over 600 random cases
   (seeds 1,2,3,42,1234 x 120, graphs up to 64 nodes).  The heuristic's
   worst natural latency ratio over the proven optimum was 1.52, but a
   sabotaged compensation also stays near 1.5 — the ratio only works as
   a coarse backstop.  What separates a broken knapsack is the captured
   gain, (umm - dnnk) / (umm - optimum): naturally it never fell below
   0.21, while a mis-ranked DP (a negated compensation term) drops to
   0.0 on dozens of cases. *)
let dnnk_slack = 0.75
let dnnk_min_capture = 0.10

type ctx = {
  graph : G.t;
  dtype : Tensor.Dtype.t;
  capacity_fraction : float;
  config : Accel.Config.t;
  metric : Metric.t;
  profiles : Latency.profile array;
  items : Metric.item array;
  sizes : int array;
  intervals : Liveness.interval array;
  pdg : Prefetch.t option;
  vbufs : Vbuffer.t list;
  capacity_bytes : int;
  umm_total : float;
  (* The allocator runs are shared across oracles but only forced by the
     ones that need them. *)
  dnnk_table : Dnnk.result Lazy.t;
  dnnk_iterative : Dnnk.result Lazy.t;
  exact : Exact.result Lazy.t;
}

let is_weight_item = function
  | Metric.Weight_of _ | Metric.Weight_slice _ -> true
  | Metric.Feature_value _ -> false

(* The planner's buffer-pool partition; [check_interference] checks
   the rows built from it against the pairwise rule [never_share]. *)
let never_share_class item = if is_weight_item item then 1 else 0

let never_share a b = is_weight_item a <> is_weight_item b

let fresh_interference ctx =
  Interference.build ~never_share_class ~items:ctx.items
    ~intervals:ctx.intervals ()

(* Search-node bound of the exact solver. *)
let exact_node_budget = 30_000

let make_ctx ?(dtype = Tensor.Dtype.I16) ?(capacity_fraction = 0.5) g =
  let config = Accel.Config.make ~style:Accel.Config.Lcmm dtype in
  let profiles = Latency.profile_graph config g in
  let metric = Metric.build g profiles in
  let items =
    Array.of_list (Metric.eligible_items metric ~memory_bound_only:false)
  in
  let sizes = Array.map (Metric.item_size_bytes dtype metric) items in
  let weight_targets =
    Array.to_list items
    |> List.filter_map (function
         | Metric.Weight_of n | Metric.Weight_slice { node = n; _ } -> Some n
         | Metric.Feature_value _ -> None)
    |> List.sort_uniq compare
  in
  let pdg =
    if weight_targets = [] then None
    else
      Some
        (Prefetch.build metric ~targets:weight_targets
           ~node_latency:(fun id -> Latency.umm_node_latency profiles.(id)))
  in
  let prefetch_source n =
    match pdg with None -> None | Some p -> Prefetch.source_of p n
  in
  let intervals = Array.map (Liveness.item_interval g ~prefetch_source) items in
  let interference =
    Interference.build ~never_share_class ~items ~intervals ()
  in
  let vbufs = Coloring.color ~strategy:Coloring.Min_growth interference ~sizes in
  let total_bytes =
    List.fold_left
      (fun acc vb -> acc + (Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes * Dnnk.block_bytes))
      0 vbufs
  in
  let capacity_bytes =
    max 0 (int_of_float (capacity_fraction *. float_of_int total_bytes))
  in
  let dnnk_table =
    lazy (Dnnk.allocate ~compensation:Dnnk.Table_approx metric ~capacity_bytes vbufs)
  in
  let dnnk_iterative =
    lazy (Dnnk.allocate ~compensation:Dnnk.Exact_iterative metric ~capacity_bytes vbufs)
  in
  let exact =
    lazy (Exact.solve ~node_budget:exact_node_budget metric ~capacity_bytes vbufs)
  in
  { graph = g;
    dtype;
    capacity_fraction;
    config;
    metric;
    profiles;
    items;
    sizes;
    intervals;
    pdg;
    vbufs;
    capacity_bytes;
    umm_total = Latency.umm_total profiles;
    dnnk_table;
    dnnk_iterative;
    exact }

let graph ctx = ctx.graph
let dtype ctx = ctx.dtype
let capacity_fraction ctx = ctx.capacity_fraction
let umm_total ctx = ctx.umm_total
let capacity_bytes ctx = ctx.capacity_bytes

let eps ctx = rel_eps *. Float.max 1e-6 ctx.umm_total

let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt

let ( let* ) = Result.bind

let iter_result f l =
  List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) l

(* --- liveness: spans cover every use and nothing more --- *)

let check_liveness ctx =
  let g = ctx.graph in
  let n = G.node_count g in
  let* () =
    iter_result
      (fun node ->
        (* Transparent nodes (concat) are views, not materialized reads:
           a value feeding only a sink concat really does die at its
           producer.  Any downstream real consumer of the concat sees
           the value in its own source set, so covering value nodes
           covers every materialized use. *)
        if not (Values.is_value g node.G.id) then Ok ()
        else
          iter_result
            (fun v ->
              let iv = Liveness.feature_interval g v in
              if iv.Liveness.start_pos <> v then
                fail "value %d: lifespan starts at %d, not its producer" v
                  iv.Liveness.start_pos
              else if iv.Liveness.end_pos < node.G.id then
                fail "value %d dies at %d but node %d still reads it" v
                  iv.Liveness.end_pos node.G.id
              else Ok ())
            (Values.source_values g node.G.id))
      (G.nodes g)
  in
  (* The span must also end at a real use: an over-long lifespan silently
     blocks sharing. *)
  let* () =
    iter_result
      (fun v ->
        if not (Values.is_value g v) then Ok ()
        else
          let iv = Liveness.feature_interval g v in
          let last =
            List.fold_left max v (Values.consumers g v)
          in
          if iv.Liveness.end_pos <> last then
            fail "value %d: lifespan ends at %d, last real use is %d" v
              iv.Liveness.end_pos last
          else Ok ())
      (List.init n Fun.id)
  in
  (* Weight intervals span [prefetch source, consuming node]. *)
  iter_result
    (fun i ->
      match ctx.items.(i) with
      | Metric.Feature_value _ -> Ok ()
      | Metric.Weight_of node | Metric.Weight_slice { node; _ } ->
        let iv = ctx.intervals.(i) in
        let source =
          match ctx.pdg with
          | None -> node
          | Some p -> (
            match Prefetch.source_of p node with Some s -> min s node | None -> node)
        in
        if iv.Liveness.start_pos <> source || iv.Liveness.end_pos <> node then
          fail "weight of node %d: interval [%d,%d], expected [%d,%d]" node
            iv.Liveness.start_pos iv.Liveness.end_pos source node
        else Ok ())
    (List.init (Array.length ctx.items) Fun.id)

(* --- interference: symmetric, irreflexive, justified by overlap --- *)

let check_interference ctx =
  let inter = fresh_interference ctx in
  let n = Interference.item_count inter in
  let result = ref (Ok ()) in
  for i = 0 to n - 1 do
    if !result = Ok () && Interference.conflict inter i i then
      result := fail "item %d conflicts with itself" i;
    for j = i + 1 to n - 1 do
      if !result = Ok () then begin
        let ij = Interference.conflict inter i j in
        let ji = Interference.conflict inter j i in
        if ij <> ji then result := fail "conflict(%d,%d)=%b but conflict(%d,%d)=%b" i j ij j i ji
        else
          let expected =
            Liveness.overlaps ctx.intervals.(i) ctx.intervals.(j)
            || never_share ctx.items.(i) ctx.items.(j)
          in
          if ij <> expected then
            result :=
              fail "conflict(%d,%d)=%b but lifespans %a/%a (never_share %b)" i j ij
                Liveness.pp ctx.intervals.(i) Liveness.pp ctx.intervals.(j)
                (never_share ctx.items.(i) ctx.items.(j))
      end
    done
  done;
  !result

(* --- coloring: buffers never merge conflicting items --- *)

let check_coloring ctx =
  let index_of = Hashtbl.create 64 in
  Array.iteri (fun i item -> Hashtbl.replace index_of item i) ctx.items;
  iter_result
    (fun strategy ->
      let inter = fresh_interference ctx in
      let vbufs = Coloring.color ~strategy inter ~sizes:ctx.sizes in
      let seen = Hashtbl.create 64 in
      let* () =
        iter_result
          (fun vb ->
            let members =
              List.map
                (fun item ->
                  match Hashtbl.find_opt index_of item with
                  | Some i -> i
                  | None -> -1)
                vb.Vbuffer.members
            in
            let* () =
              if List.mem (-1) members then
                fail "buffer %d contains an item outside the item set"
                  vb.Vbuffer.vbuf_id
              else Ok ()
            in
            List.iter (fun i -> Hashtbl.replace seen i ()) members;
            let* () =
              let max_size =
                List.fold_left (fun acc i -> max acc ctx.sizes.(i)) 0 members
              in
              if vb.Vbuffer.size_bytes <> max_size then
                fail "buffer %d: size %d, largest member %d" vb.Vbuffer.vbuf_id
                  vb.Vbuffer.size_bytes max_size
              else Ok ()
            in
            iter_result
              (fun i ->
                iter_result
                  (fun j ->
                    if i <> j && Interference.conflict inter i j then
                      fail
                        "buffer %d merges interfering items %a and %a \
                         (lifespans %a, %a)"
                        vb.Vbuffer.vbuf_id Metric.pp_item ctx.items.(i)
                        Metric.pp_item ctx.items.(j) Liveness.pp
                        ctx.intervals.(i) Liveness.pp ctx.intervals.(j)
                    else Ok ())
                  members)
              members)
          vbufs
      in
      if Hashtbl.length seen <> Array.length ctx.items then
        fail "coloring dropped %d of %d items"
          (Array.length ctx.items - Hashtbl.length seen)
          (Array.length ctx.items)
      else Ok ())
    [ Coloring.Min_growth; Coloring.First_fit ]

(* --- prefetch: every PDG edge actually hides its load --- *)

let check_prefetch ctx =
  match ctx.pdg with
  | None -> Ok ()
  | Some pdg ->
    let latency id = Latency.umm_node_latency ctx.profiles.(id) in
    let elapsed from_ until = (* sum over [from_, until) *)
      let s = ref 0. in
      for id = from_ to until - 1 do
        s := !s +. latency id
      done;
      !s
    in
    iter_result
      (fun e ->
        let { Prefetch.source; target; load_seconds; stall_seconds } = e in
        let* () =
          if source < 0 || source > target then
            fail "w%d: prefetch source %d outside [0,%d]" target source target
          else Ok ()
        in
        let* () =
          let expected = ctx.profiles.(target).Latency.wt_load_once in
          if Float.abs (load_seconds -. expected) > eps ctx then
            fail "w%d: edge load %.6e but profile says %.6e" target load_seconds
              expected
          else Ok ()
        in
        if stall_seconds > 0. then
          (* Even starting at node 0 is too late; the residual must be
             exactly what the elapsed time misses. *)
          if source <> 0 then
            fail "w%d: stall %.3e with source %d <> 0" target stall_seconds source
          else
            let gap = load_seconds -. elapsed 0 target in
            if Float.abs (stall_seconds -. gap) > eps ctx then
              fail "w%d: stall %.6e but load-elapsed gap is %.6e" target
                stall_seconds gap
            else Ok ()
        else
          let hide = elapsed source target in
          if hide +. eps ctx < load_seconds then
            fail "w%d: prefetch from %d hides %.6e s of a %.6e s load" target
              source hide load_seconds
          else if source > 0 && elapsed (source + 1) target >= load_seconds +. eps ctx
          then
            fail "w%d: source %d is conservative; starting at %d still hides the load"
              target source (source + 1)
          else Ok ())
      (Prefetch.edges pdg)

(* --- DNNK: capacity discipline and self-consistent accounting --- *)

let check_dnnk_result ctx name (r : Dnnk.result) =
  let capacity_blocks = ctx.capacity_bytes / Dnnk.block_bytes in
  let* () =
    if r.Dnnk.capacity_blocks <> capacity_blocks then
      fail "%s: reports capacity %d blocks, expected %d" name r.Dnnk.capacity_blocks
        capacity_blocks
    else Ok ()
  in
  let* () =
    if r.Dnnk.used_blocks > r.Dnnk.capacity_blocks then
      fail "%s: uses %d of %d blocks" name r.Dnnk.used_blocks r.Dnnk.capacity_blocks
    else Ok ()
  in
  let* () =
    let sum =
      List.fold_left
        (fun acc vb -> acc + Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes)
        0 r.Dnnk.chosen
    in
    if sum <> r.Dnnk.used_blocks then
      fail "%s: used_blocks %d but chosen buffers total %d" name r.Dnnk.used_blocks sum
    else Ok ()
  in
  let* () =
    let ids l = List.map (fun vb -> vb.Vbuffer.vbuf_id) l |> List.sort compare in
    let all = ids ctx.vbufs in
    let got = ids (r.Dnnk.chosen @ r.Dnnk.spilled) in
    if all <> got then fail "%s: chosen+spilled is not a partition of the buffers" name
    else Ok ()
  in
  let* () =
    let members =
      List.concat_map (fun vb -> vb.Vbuffer.members) r.Dnnk.chosen
      |> Metric.Item_set.of_list
    in
    if not (Metric.Item_set.equal members r.Dnnk.on_chip) then
      fail "%s: on_chip set disagrees with chosen buffers' members" name
    else Ok ()
  in
  let* () =
    let exact = Metric.total_latency ctx.metric ~on_chip:r.Dnnk.on_chip in
    if Float.abs (exact -. r.Dnnk.predicted_latency) > eps ctx then
      fail "%s: predicted %.9e but Eq. 1 evaluates to %.9e" name
        r.Dnnk.predicted_latency exact
    else Ok ()
  in
  if r.Dnnk.predicted_latency > ctx.umm_total +. eps ctx then
    fail "%s: predicted %.9e beats nothing — UMM is %.9e" name
      r.Dnnk.predicted_latency ctx.umm_total
  else Ok ()

let check_dnnk ctx =
  let* () = check_dnnk_result ctx "table" (Lazy.force ctx.dnnk_table) in
  let* () = check_dnnk_result ctx "iterative" (Lazy.force ctx.dnnk_iterative) in
  (* When everything fits, pinning everything dominates any subset. *)
  let total_blocks =
    List.fold_left
      (fun acc vb -> acc + Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes)
      0 ctx.vbufs
  in
  let capacity_blocks = ctx.capacity_bytes / Dnnk.block_bytes in
  if total_blocks <= capacity_blocks then
    iter_result
      (fun (name, r) ->
        if (Lazy.force r).Dnnk.spilled <> [] then
          fail "%s: spills buffers although everything fits (%d <= %d blocks)"
            name total_blocks capacity_blocks
        else Ok ())
      [ ("table", ctx.dnnk_table); ("iterative", ctx.dnnk_iterative) ]
  else Ok ()

(* --- DNNK vs the exact solver --- *)

let check_dnnk_vs_exact ctx =
  let exact = Lazy.force ctx.exact in
  let table = Lazy.force ctx.dnnk_table in
  let iterative = Lazy.force ctx.dnnk_iterative in
  let* () =
    let recomputed = Metric.total_latency ctx.metric ~on_chip:exact.Exact.on_chip in
    if Float.abs (recomputed -. exact.Exact.latency) > eps ctx then
      fail "exact: latency %.9e but Eq. 1 evaluates to %.9e" exact.Exact.latency
        recomputed
    else Ok ()
  in
  let* () =
    let blocks =
      List.fold_left
        (fun acc vb -> acc + Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes)
        0 exact.Exact.chosen
    in
    if blocks > ctx.capacity_bytes / Dnnk.block_bytes then
      fail "exact: allocation uses %d blocks of %d" blocks
        (ctx.capacity_bytes / Dnnk.block_bytes)
    else Ok ()
  in
  (* The incumbent is seeded with DNNK, so even a truncated search never
     loses to the table heuristic. *)
  let* () =
    if exact.Exact.latency > table.Dnnk.predicted_latency +. eps ctx then
      fail "exact %.9e is worse than its own DNNK seed %.9e" exact.Exact.latency
        table.Dnnk.predicted_latency
    else Ok ()
  in
  if not exact.Exact.proven_optimal then Ok ()
  else
    iter_result
      (fun (name, r) ->
        let opt = exact.Exact.latency in
        let d = r.Dnnk.predicted_latency in
        let* () =
          if d +. eps ctx < opt then
            fail "%s DNNK %.9e beats the proven optimum %.9e" name d opt
          else Ok ()
        in
        let* () =
          if d > (opt *. (1. +. dnnk_slack)) +. eps ctx then
            fail
              "%s DNNK %.9e exceeds the proven optimum %.9e by more than \
               %.0f%% (capacity %d blocks)"
              name d opt (100. *. dnnk_slack)
              (ctx.capacity_bytes / Dnnk.block_bytes)
          else Ok ()
        in
        let available = ctx.umm_total -. opt in
        (* The capture floor only binds when a greedy start could capture
           anything at all: when every single buffer has zero marginal
           gain on its own (the benefit exists only jointly, through
           Eq. 1's max structure), the heuristic is legitimately blind
           and only the exact search finds the move. *)
        let capacity_blocks = ctx.capacity_bytes / Dnnk.block_bytes in
        let best_single =
          List.fold_left
            (fun acc vb ->
              if Dnnk.blocks_of_bytes vb.Vbuffer.size_bytes > capacity_blocks
              then acc
              else
                Float.max acc
                  (Metric.marginal_gain_many ctx.metric
                     ~on_chip:Metric.Item_set.empty vb.Vbuffer.members))
            0. ctx.vbufs
        in
        if
          available > eps ctx
          && best_single > eps ctx
          && ctx.umm_total -. d < (dnnk_min_capture *. available) -. eps ctx
        then
          fail
            "%s DNNK %.9e captures only %.1f%% of the provable gain (umm \
             %.9e, optimum %.9e; the floor is %.0f%%)"
            name d
            (100. *. (ctx.umm_total -. d) /. available)
            ctx.umm_total opt (100. *. dnnk_min_capture)
        else Ok ())
      [ ("table", table); ("iterative", iterative) ]

(* --- incremental DNNK: a reused workspace never changes the answer --- *)

(* The DP workspace is scratch (DP arrays, gain and key buffers, the
   generation-cleared row memo, stamp arrays) that the splitting loop
   reuses across calls on near-identical inputs.  That reuse must be
   invisible: after any single-buffer perturbation of the input
   (splitting one buffer in two, or dropping one), allocating with a
   workspace already used on the *original* buffer list must reproduce
   the cold run on the perturbed list decision for decision and bit for
   bit in the objective — stale scratch must never leak into a call. *)
let check_dnnk_incremental ctx =
  let metric = ctx.metric and capacity_bytes = ctx.capacity_bytes in
  let size_of = Hashtbl.create 64 in
  Array.iteri (fun i item -> Hashtbl.replace size_of item ctx.sizes.(i)) ctx.items;
  let sized vb =
    List.map (fun it -> (it, Hashtbl.find size_of it)) vb.Vbuffer.members
  in
  let next_id =
    1 + List.fold_left (fun acc vb -> max acc vb.Vbuffer.vbuf_id) 0 ctx.vbufs
  in
  (* Single-buffer perturbations: split the first few multi-member
     buffers (largest member peeled into its own buffer, the remainder
     keeps the id), and drop the first few buffers outright. *)
  let splits =
    List.filter (fun vb -> Vbuffer.member_count vb > 1) ctx.vbufs
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun vb ->
           let label = Printf.sprintf "split vbuf %d" vb.Vbuffer.vbuf_id in
           let perturbed =
             List.concat_map
               (fun v ->
                 if v.Vbuffer.vbuf_id <> vb.Vbuffer.vbuf_id then [ v ]
                 else
                   match sized v with
                   | head :: (_ :: _ as rest) ->
                     [ Vbuffer.make ~vbuf_id:next_id ~sized_members:[ head ];
                       Vbuffer.make ~vbuf_id:v.Vbuffer.vbuf_id
                         ~sized_members:rest ]
                   | _ -> [ v ])
               ctx.vbufs
           in
           (label, perturbed))
  in
  let drops =
    List.filteri (fun i _ -> i < 3) ctx.vbufs
    |> List.map (fun vb ->
           ( Printf.sprintf "drop vbuf %d" vb.Vbuffer.vbuf_id,
             List.filter
               (fun v -> v.Vbuffer.vbuf_id <> vb.Vbuffer.vbuf_id)
               ctx.vbufs ))
  in
  let warm = Dnnk.workspace () in
  (* Use the workspace on the unperturbed input once; every perturbed
     run below then starts from the scratch that run left behind. *)
  let _ = Dnnk.allocate ~workspace:warm metric ~capacity_bytes ctx.vbufs in
  let ids l = List.map (fun vb -> vb.Vbuffer.vbuf_id) l |> List.sort compare in
  iter_result
    (fun (label, vbufs) ->
      if vbufs = [] then Ok ()
      else
        let cold = Dnnk.allocate metric ~capacity_bytes vbufs in
        let hot = Dnnk.allocate ~workspace:warm metric ~capacity_bytes vbufs in
        let* () =
          if ids hot.Dnnk.chosen <> ids cold.Dnnk.chosen then
            fail "%s: warm workspace chose different buffers" label
          else Ok ()
        in
        let* () =
          if ids hot.Dnnk.spilled <> ids cold.Dnnk.spilled then
            fail "%s: warm workspace spilled different buffers" label
          else Ok ()
        in
        let* () =
          if hot.Dnnk.used_blocks <> cold.Dnnk.used_blocks then
            fail "%s: warm used %d blocks, cold used %d" label
              hot.Dnnk.used_blocks cold.Dnnk.used_blocks
          else Ok ()
        in
        (* Bit-exact, not epsilon-close: the reused run must reproduce
           the cold fold's float arithmetic term for term. *)
        if hot.Dnnk.predicted_latency <> cold.Dnnk.predicted_latency then
          fail "%s: warm objective %.17g, cold %.17g" label
            hot.Dnnk.predicted_latency cold.Dnnk.predicted_latency
        else Ok ())
    (splits @ drops)

(* --- splitting: repairs only, never regressions --- *)

let check_splitting ctx =
  let inter = fresh_interference ctx in
  let vbufs = Coloring.color ~strategy:Coloring.Min_growth inter ~sizes:ctx.sizes in
  let initial = Dnnk.allocate ctx.metric ~capacity_bytes:ctx.capacity_bytes vbufs in
  let outcome =
    Splitting.run ctx.metric inter ~sizes:ctx.sizes
      ~capacity_bytes:ctx.capacity_bytes initial
  in
  let final = outcome.Splitting.result in
  let* () =
    if final.Dnnk.predicted_latency > initial.Dnnk.predicted_latency +. eps ctx then
      fail "splitting regressed latency: %.9e -> %.9e (%d iterations)"
        initial.Dnnk.predicted_latency final.Dnnk.predicted_latency
        outcome.Splitting.iterations
    else Ok ()
  in
  let* () =
    if final.Dnnk.used_blocks > final.Dnnk.capacity_blocks then
      fail "splitting result uses %d of %d blocks" final.Dnnk.used_blocks
        final.Dnnk.capacity_blocks
    else Ok ()
  in
  let recomputed = Metric.total_latency ctx.metric ~on_chip:final.Dnnk.on_chip in
  if Float.abs (recomputed -. final.Dnnk.predicted_latency) > eps ctx then
    fail "splitting result predicts %.9e, Eq. 1 evaluates to %.9e"
      final.Dnnk.predicted_latency recomputed
  else Ok ()

(* --- simulator vs the analytical model --- *)

let check_simulator ctx =
  let metric = ctx.metric in
  (* UMM: with nothing pinned the weight channel never backs up, so the
     discrete-event replay must land exactly on the analytical total. *)
  let umm_run = Sim.Engine.simulate_umm metric in
  let* () =
    if Float.abs (umm_run.Sim.Engine.total -. ctx.umm_total) > eps ctx then
      fail "UMM simulation %.9e disagrees with analytical %.9e"
        umm_run.Sim.Engine.total ctx.umm_total
    else Ok ()
  in
  let alloc = Lazy.force ctx.dnnk_table in
  let on_chip = alloc.Dnnk.on_chip in
  let analytic = Metric.total_latency metric ~on_chip in
  let run = Sim.Engine.simulate ?prefetch:ctx.pdg metric ~on_chip in
  (* The serialized weight channel can only add time to Eq. 1's
     per-interface optimism, never remove it... *)
  let* () =
    if run.Sim.Engine.total +. eps ctx < analytic then
      fail "simulated %.9e beats the analytical lower bound %.9e"
        run.Sim.Engine.total analytic
    else Ok ()
  in
  (* ...and the excess is bounded by the observable contention: stall
     time waiting on arrivals plus the channel's total busy time. *)
  let* () =
    let bound =
      analytic +. run.Sim.Engine.prefetch_wait +. run.Sim.Engine.wt_channel_busy
      +. eps ctx
    in
    if run.Sim.Engine.total > bound then
      fail "simulated %.9e exceeds analytical %.9e + wait %.9e + channel busy %.9e"
        run.Sim.Engine.total analytic run.Sim.Engine.prefetch_wait
        run.Sim.Engine.wt_channel_busy
    else Ok ()
  in
  (* Resident weights (steady-state batching) can only help. *)
  let* () =
    let resident =
      Sim.Engine.simulate ~weights_resident:true ?prefetch:ctx.pdg metric ~on_chip
    in
    if resident.Sim.Engine.total > run.Sim.Engine.total +. eps ctx then
      fail "weights_resident run %.9e is slower than the cold run %.9e"
        resident.Sim.Engine.total run.Sim.Engine.total
    else Ok ()
  in
  (* Pinning more features is monotone: with no weights involved the
     replay equals Eq. 1, which is a per-node max over fewer terms. *)
  let features =
    Array.to_list ctx.items
    |> List.filter (fun it -> not (is_weight_item it))
  in
  let rec prefixes acc set = function
    | [] -> List.rev acc
    | it :: rest ->
      let set = Metric.Item_set.add it set in
      prefixes (set :: acc) set rest
  in
  let sets = prefixes [] Metric.Item_set.empty features in
  let totals =
    List.map (fun set -> (Sim.Engine.simulate metric ~on_chip:set).Sim.Engine.total) sets
  in
  let rec monotone prev = function
    | [] -> Ok ()
    | t :: rest ->
      if t > prev +. eps ctx then
        fail "pinning one more feature value raised the simulated total %.9e -> %.9e"
          prev t
      else monotone t rest
  in
  let* () = monotone umm_run.Sim.Engine.total totals in
  (* Batch accounting is pure arithmetic over the two runs. *)
  let b = Sim.Engine.simulate_batch ?prefetch:ctx.pdg ~images:4 metric ~on_chip in
  let expected = b.Sim.Engine.first_image +. (3. *. b.Sim.Engine.steady_image) in
  if Float.abs (b.Sim.Engine.batch_total -. expected) > eps ctx then
    fail "batch total %.9e, expected first + 3*steady = %.9e"
      b.Sim.Engine.batch_total expected
  else Ok ()

(* --- the full framework plan: end-to-end safety --- *)

let check_plan ctx =
  let options =
    { Framework.default_options with
      Framework.capacity_override = Some ctx.capacity_bytes }
  in
  let plan = Framework.plan ~options ctx.config ctx.graph in
  let* () =
    if plan.Framework.predicted_latency > ctx.umm_total +. eps ctx then
      fail "plan predicts %.9e, worse than its UMM baseline %.9e"
        plan.Framework.predicted_latency ctx.umm_total
    else Ok ()
  in
  let* () =
    let alloc = plan.Framework.allocation in
    if plan.Framework.tensor_sram_bytes <> alloc.Dnnk.used_blocks * Dnnk.block_bytes
    then
      fail "plan grants %d tensor SRAM bytes but the allocation uses %d blocks"
        plan.Framework.tensor_sram_bytes alloc.Dnnk.used_blocks
    else Ok ()
  in
  let* () =
    let alloc = plan.Framework.allocation in
    if alloc.Dnnk.used_blocks > alloc.Dnnk.capacity_blocks then
      fail "plan exceeds capacity: %d of %d blocks" alloc.Dnnk.used_blocks
        alloc.Dnnk.capacity_blocks
    else Ok ()
  in
  let* () =
    if plan.Framework.pol < 0. || plan.Framework.pol > 1. then
      fail "POL %.3f outside [0,1]" plan.Framework.pol
    else Ok ()
  in
  (* The plan's own simulation must respect the analytical safety net:
     total within the bounded gap of the prediction. *)
  let metric = plan.Framework.metric in
  let on_chip = plan.Framework.allocation.Dnnk.on_chip in
  let run = Sim.Engine.simulate ?prefetch:plan.Framework.prefetch metric ~on_chip in
  let analytic = Metric.total_latency metric ~on_chip in
  if run.Sim.Engine.total +. eps ctx < analytic then
    fail "plan simulation %.9e beats its analytical bound %.9e" run.Sim.Engine.total
      analytic
  else Ok ()

(* --- degraded mode: eviction under SRAM bank loss --- *)

(* The runtime's bank-loss path shrinks a finished allocation with
   [Dnnk.evict_to_capacity] and re-solves at the surviving capacity.
   Whatever the fault timing, the algebra must hold: the shrunken
   allocation fits, evicts only buffers it actually held (chosen =
   survivors + evicted, disjoint), stays Eq. 1-consistent, and only
   gets slower as more capacity is lost. *)
let check_degraded ctx =
  let base = Lazy.force ctx.dnnk_table in
  let ids vbufs =
    List.sort_uniq compare (List.map (fun vb -> vb.Vbuffer.vbuf_id) vbufs)
  in
  let base_ids = ids base.Dnnk.chosen in
  let base_bytes = base.Dnnk.capacity_blocks * Dnnk.block_bytes in
  let rec sweep prev_latency = function
    | [] -> Ok ()
    | frac :: rest ->
      let surviving = int_of_float (frac *. float_of_int base_bytes) in
      let post, evicted =
        Dnnk.evict_to_capacity ctx.metric ~capacity_bytes:surviving base
      in
      let* () =
        if post.Dnnk.used_blocks > post.Dnnk.capacity_blocks then
          fail "degraded at %.0f%%: uses %d of %d blocks" (100. *. frac)
            post.Dnnk.used_blocks post.Dnnk.capacity_blocks
        else Ok ()
      in
      let survivor_ids = ids post.Dnnk.chosen in
      let evicted_ids = ids evicted in
      let* () =
        let reunion = List.sort_uniq compare (survivor_ids @ evicted_ids) in
        if
          reunion <> base_ids
          || List.exists (fun id -> List.mem id evicted_ids) survivor_ids
        then
          fail "degraded at %.0f%%: survivors + evicted do not partition the \
                chosen set"
            (100. *. frac)
        else Ok ()
      in
      let* () =
        let recomputed =
          Metric.total_latency ctx.metric ~on_chip:post.Dnnk.on_chip
        in
        if Float.abs (recomputed -. post.Dnnk.predicted_latency) > eps ctx then
          fail "degraded at %.0f%%: predicts %.9e, Eq. 1 evaluates to %.9e"
            (100. *. frac) post.Dnnk.predicted_latency recomputed
        else Ok ()
      in
      let* () =
        if post.Dnnk.predicted_latency +. eps ctx < prev_latency then
          fail "losing capacity sped the plan up: %.9e -> %.9e at %.0f%%"
            prev_latency post.Dnnk.predicted_latency (100. *. frac)
        else Ok ()
      in
      sweep post.Dnnk.predicted_latency rest
  in
  (* Decreasing surviving capacity; latency must be non-decreasing. *)
  let* () = sweep base.Dnnk.predicted_latency [ 0.75; 0.5; 0.25; 0. ] in
  (* The re-solve half of degraded mode: a fresh partitioned plan at the
     surviving capacity also respects it. *)
  let surviving = base_bytes / 2 in
  let p =
    Framework.plan_partitioned ~options:Framework.default_options
      ~capacity_bytes:surviving ctx.config ctx.graph
  in
  let alloc = p.Framework.allocation in
  if alloc.Dnnk.used_blocks > alloc.Dnnk.capacity_blocks then
    fail "replanned at %d bytes uses %d of %d blocks" surviving
      alloc.Dnnk.used_blocks alloc.Dnnk.capacity_blocks
  else Ok ()

(* --- fusion: segment legality, stream conservation, off-inertness --- *)

module Fusion = Lcmm_fusion.Fusion
module Segmentation = Lcmm_fusion.Segmentation

(* Both fusion oracles replay the pass over the same end-to-end plan the
   [plan] oracle builds, at the ctx capacity. *)
let fused_pass ctx =
  let options =
    { Framework.default_options with
      Framework.capacity_override = Some ctx.capacity_bytes;
      fusion = true }
  in
  let base = Framework.plan ~options ctx.config ctx.graph in
  (base, Fusion.apply base)

let check_segment_legal ctx =
  let base, fz = fused_pass ctx in
  let headroom =
    ctx.capacity_bytes - base.Framework.tensor_sram_bytes - fz.Fusion.fifo_bytes
  in
  let* () =
    (* Disjoint, increasing, non-trivial segments. *)
    let rec disjoint prev = function
      | [] -> Ok ()
      | (s : Segmentation.segment) :: rest ->
        if s.Segmentation.first > s.Segmentation.last then
          fail "segment [%d..%d] is empty" s.Segmentation.first
            s.Segmentation.last
        else if s.Segmentation.first <= prev then
          fail "segment [%d..%d] overlaps or disorders its predecessor"
            s.Segmentation.first s.Segmentation.last
        else disjoint s.Segmentation.last rest
    in
    disjoint (-1) fz.Fusion.segments
  in
  let* () =
    iter_result
      (fun (s : Segmentation.segment) ->
        let* () =
          if s.Segmentation.internal = [] then
            fail "segment [%d..%d] fuses nothing" s.Segmentation.first
              s.Segmentation.last
          else Ok ()
        in
        let* () =
          if s.Segmentation.slab_bytes > headroom then
            fail "segment [%d..%d] slabs %d bytes exceed the %d-byte headroom"
              s.Segmentation.first s.Segmentation.last s.Segmentation.slab_bytes
              headroom
          else Ok ()
        in
        (* Liveness containment, from the graph itself: an internal value
           is produced inside the segment (before its last node) and
           every consumer stays inside — no shortcut, escape or graph
           output may cross the segment boundary. *)
        iter_result
          (fun v ->
            let* () =
              if
                not
                  (Values.is_value ctx.graph v
                  && v >= s.Segmentation.first
                  && v < s.Segmentation.last)
              then
                fail "segment [%d..%d] claims non-member value %d as internal"
                  s.Segmentation.first s.Segmentation.last v
              else Ok ()
            in
            match Values.consumers ctx.graph v with
            | [] ->
              fail "segment [%d..%d] fused graph output %d"
                s.Segmentation.first s.Segmentation.last v
            | consumers ->
              iter_result
                (fun c ->
                  if c > s.Segmentation.last then
                    fail
                      "value %d escapes segment [%d..%d] to consumer %d"
                      v s.Segmentation.first s.Segmentation.last c
                  else Ok ())
                consumers)
          s.Segmentation.internal)
      fz.Fusion.segments
  in
  let* () =
    let peak = fz.Fusion.plan.Framework.tensor_sram_bytes in
    if peak > ctx.capacity_bytes then
      fail "fused peak SRAM %d exceeds the %d-byte capacity" peak
        ctx.capacity_bytes
    else Ok ()
  in
  let* () =
    if fz.Fusion.predicted_latency > base.Framework.predicted_latency +. eps ctx
    then
      fail "fusion slowed the plan: %.9e -> %.9e"
        base.Framework.predicted_latency fz.Fusion.predicted_latency
    else Ok ()
  in
  (* Fusion off must be inert and byte-identical: same fingerprint as the
     fusion-enabled base (the flag changes nothing until the post-pass),
     and the gate returns the base plan itself, not a copy. *)
  let options_off =
    { Framework.default_options with
      Framework.capacity_override = Some ctx.capacity_bytes }
  in
  let off = Framework.plan ~options:options_off ctx.config ctx.graph in
  let* () =
    if Framework.fingerprint off <> Framework.fingerprint base then
      fail "the fusion flag perturbed the base plan"
    else Ok ()
  in
  match Fusion.post off with
  | plan, None when plan == off -> Ok ()
  | _ -> fail "fusion-off pass is not inert"

let check_stream_conserve ctx =
  let base, fz = fused_pass ctx in
  let profiles = base.Framework.metric.Metric.profiles in
  let eff = fz.Fusion.plan.Framework.metric.Metric.profiles in
  let* () =
    iter_result
      (fun n ->
        let p = profiles.(n) in
        let q = eff.(n) in
        (* One pass through the FIFO: streamed DDR bytes equal the weight
           tensor's size, recomputed from the graph shape. *)
        let expected =
          match G.weight_shape ctx.graph n with
          | Some shape -> Tensor.Shape.size_bytes ctx.dtype shape
          | None -> -1
        in
        let* () =
          if expected < 0 then fail "streamed node %d has no weights" n
          else Ok ()
        in
        let* () =
          if q.Latency.wt_stream_bytes <> expected then
            fail "streamed node %d moves %d DDR bytes, weights are %d bytes"
              n q.Latency.wt_stream_bytes expected
          else Ok ()
        in
        let* () =
          if q.Latency.wt_stream_bytes <> p.Latency.wt_once_bytes then
            fail "streamed node %d: %d stream bytes, one load is %d"
              n q.Latency.wt_stream_bytes p.Latency.wt_once_bytes
          else Ok ()
        in
        (* Streaming must pay the one-shot load time, never the tiled
           re-read it replaces. *)
        if q.Latency.wt_term > p.Latency.wt_term +. eps ctx then
          fail "streaming slowed node %d's weight channel: %.9e -> %.9e" n
            p.Latency.wt_term q.Latency.wt_term
        else Ok ())
      fz.Fusion.streamed
  in
  (* The pass's traffic claim is reproducible from its own metric and
     residency — DDR bytes are conserved end to end. *)
  let recomputed =
    let p = fz.Fusion.plan in
    Lcmm.Traffic.of_allocation p.Framework.metric
      ~on_chip:p.Framework.allocation.Dnnk.on_chip
  in
  if recomputed <> fz.Fusion.traffic then
    fail "fused traffic (%d,%d,%d) bytes, recomputation gives (%d,%d,%d)"
      fz.Fusion.traffic.Lcmm.Traffic.if_bytes
      fz.Fusion.traffic.Lcmm.Traffic.wt_bytes
      fz.Fusion.traffic.Lcmm.Traffic.of_bytes recomputed.Lcmm.Traffic.if_bytes
      recomputed.Lcmm.Traffic.wt_bytes recomputed.Lcmm.Traffic.of_bytes
  else Ok ()

(* --- the DRAM schedule: conservation and the portfolio guarantee --- *)

(* Two replicas of the generated case contend for two DDR channels under
   priority arbitration — the smallest run where scheduling decisions
   matter.  Whatever order a scheduler picks, it must conserve bytes
   (the same transfers move the same bytes over the same channels),
   never start a transfer before its PDG release, and the optimizer's
   portfolio selection must never lose to either baseline. *)
let check_schedule_conserve ctx =
  let module REngine = Lcmm_runtime.Engine in
  let module RScheduler = Lcmm_runtime.Scheduler in
  let module RArbiter = Lcmm_runtime.Arbiter in
  let module ROptimizer = Lcmm_runtime.Optimizer in
  let alloc = Lazy.force ctx.dnnk_table in
  let on_chip = alloc.Dnnk.on_chip in
  let metric = ctx.metric in
  let iso = Sim.Engine.simulate ?prefetch:ctx.pdg metric ~on_chip in
  let slack =
    match ctx.pdg with
    | None -> fun _ -> 0.
    | Some pdg -> (
        fun target ->
          match Prefetch.source_of pdg target with
          | Some s ->
            iso.Sim.Engine.timings.(target).Sim.Engine.start
            -. iso.Sim.Engine.timings.(s).Sim.Engine.start
          | None -> 0.)
  in
  let input label priority =
    { REngine.label; metric; on_chip; prefetch = ctx.pdg; arrival = 0.;
      priority; slack; replan = None }
  in
  let inputs = [| input "a" 0; input "b" 1 |] in
  let channels = 2 in
  let a = Lcmm.Channels.assign ~channels metric ~on_chip in
  let assign ~owner:_ ~target kind =
    let cls =
      match kind with
      | REngine.Prefetch_load | REngine.Demand_load -> Lcmm.Channels.Wt_load
      | REngine.Weight_stream_x -> Lcmm.Channels.Wt_stream
    in
    Lcmm.Channels.channel_for a cls target
  in
  let arbitration = RArbiter.Priority in
  let greedy =
    REngine.run ~arbitration ~scheduler:RScheduler.Greedy ~channels ~assign
      inputs
  in
  let edf =
    REngine.run ~arbitration ~scheduler:RScheduler.Edf ~channels ~assign
      inputs
  in
  let opt =
    ROptimizer.search ~arbitration ~channels ~assign ~isos:[| iso; iso |]
      inputs
  in
  let channel_bytes (r : REngine.result) =
    let sums = Array.make channels 0. in
    List.iter
      (fun (x : REngine.xfer_log) ->
        sums.(x.REngine.log_channel) <- sums.(x.REngine.log_channel)
                                        +. x.REngine.log_bytes)
      r.REngine.transfers;
    sums
  in
  let ref_bytes = channel_bytes greedy in
  let* () =
    iter_result
      (fun (name, r) ->
        let b = channel_bytes r in
        let rec chk c =
          if c >= channels then Ok ()
          else if Float.abs (b.(c) -. ref_bytes.(c)) > 1e-6 then
            fail
              "%s moved %.17g bytes on channel %d where greedy moved %.17g \
               — schedule changed the traffic, not just its order"
              name b.(c) c ref_bytes.(c)
          else chk (c + 1)
        in
        chk 0)
      [ ("edf", edf); ("optimized", opt.ROptimizer.result) ]
  in
  let* () =
    iter_result
      (fun (name, (r : REngine.result)) ->
        iter_result
          (fun (x : REngine.xfer_log) ->
            let* () =
              if
                x.REngine.log_started >= 0.
                && x.REngine.log_started +. eps ctx < x.REngine.log_released
              then
                fail "%s started a transfer at %.9e before its release %.9e"
                  name x.REngine.log_started x.REngine.log_released
              else Ok ()
            in
            if
              x.REngine.log_finished >= 0.
              && x.REngine.log_finished +. eps ctx < x.REngine.log_started
            then
              fail "%s finished a transfer at %.9e before it started at %.9e"
                name x.REngine.log_finished x.REngine.log_started
            else Ok ())
          r.REngine.transfers)
      [ ("greedy", greedy); ("edf", edf); ("optimized", opt.ROptimizer.result) ]
  in
  let baseline = Float.min greedy.REngine.makespan edf.REngine.makespan in
  if opt.ROptimizer.result.REngine.makespan > baseline +. eps ctx then
    fail
      "optimized makespan %.9e loses to min(greedy %.9e, edf %.9e) — the \
       portfolio guarantee is broken"
      opt.ROptimizer.result.REngine.makespan greedy.REngine.makespan
      edf.REngine.makespan
  else Ok ()

type t = {
  name : string;
  doc : string;
  check : ctx -> (unit, string) result;
}

let all =
  [ { name = "liveness";
      doc = "lifespans start at the producer and cover every use";
      check = check_liveness };
    { name = "interference";
      doc = "conflicts are symmetric, irreflexive and justified by overlap";
      check = check_interference };
    { name = "coloring";
      doc = "no buffer merges interfering items; sizes are max-of-members";
      check = check_coloring };
    { name = "prefetch";
      doc = "every PDG edge hides its load, or reports the exact residual stall";
      check = check_prefetch };
    { name = "dnnk";
      doc = "DNNK respects capacity and its accounting is Eq. 1-consistent";
      check = check_dnnk };
    { name = "dnnk-vs-exact";
      doc = "DNNK never beats, and stays near, the branch-and-bound optimum";
      check = check_dnnk_vs_exact };
    { name = "dnnk-incremental";
      doc = "a reused DP workspace reproduces the cold run bit for bit";
      check = check_dnnk_incremental };
    { name = "splitting";
      doc = "buffer splitting never increases the predicted latency";
      check = check_splitting };
    { name = "simulator";
      doc = "the discrete-event replay brackets the analytical model";
      check = check_simulator };
    { name = "plan";
      doc = "the end-to-end plan never loses to UMM and accounts its SRAM";
      check = check_plan };
    { name = "degraded";
      doc = "bank-loss eviction fits, partitions cleanly and is monotone";
      check = check_degraded };
    { name = "segment-legal";
      doc = "fused segments fit the SRAM grant, leak no value, and off is inert";
      check = check_segment_legal };
    { name = "stream-conserve";
      doc = "a streamed weight moves exactly its bytes once per inference";
      check = check_stream_conserve };
    { name = "schedule-conserve";
      doc =
        "DRAM schedules conserve per-channel bytes, respect releases, and \
         the optimizer never loses to greedy or edf";
      check = check_schedule_conserve } ]

let names = List.map (fun o -> o.name) all

let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt (fun o -> o.name = lower) all

let check_all ?(oracles = all) ctx =
  List.filter_map
    (fun o ->
      match o.check ctx with
      | Ok () -> None
      | Error msg -> Some (o.name, msg)
      | exception e -> Some (o.name, "raised " ^ Printexc.to_string e))
    oracles
