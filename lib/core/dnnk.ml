type compensation = Table_approx | Exact_iterative

type result = {
  chosen : Vbuffer.t list;
  spilled : Vbuffer.t list;
  on_chip : Metric.Item_set.t;
  predicted_latency : float;
  capacity_blocks : int;
  used_blocks : int;
}

(* --- compensation state ---------------------------------------------

   Per-row state for the Table_approx gain, built afresh by every
   allocator call: the affected nodes split into column-independent
   ones (both predicate evaluations are constants) and dependent ones,
   which read [pbuf_table] bits of earlier DP rows at the source column.
   Gains are memoized at two granularities:

   - per dependent *node*, in a direct table indexed by the packed bits
     of just the earlier rows that node's queries can reach (widths are
     tiny — a node queries its weight, its input features and its
     output); a node reaching more than [node_direct_bits] rows is
     evaluated unmemoized, and
   - per *row*, keyed on the packed bits of every earlier row the whole
     row can reach, so a repeated bit pattern costs one lookup.  A row
     is filled once per DP call and sees at most one key per column, so
     this memo lives only while the row is filled: one open-addressing
     table in the workspace, emptied per row by a generation bump.

   Rows too wide for a single-int row key fall back to per-column
   accumulation through the node memos.  Every memoized value is a pure
   function of its key bits (the unmemoized fold reads identical state
   and produces identical floats), which is what makes reuse across
   columns bit-exact. *)

let max_key_bits = Sys.int_size - 2
let node_direct_bits = 8

(* A dependent node's (p1, p2) pairs by key; NaN in [p1] = empty. *)
type node_memo = { p1 : float array; p2 : float array }

(* A row's column-independent nodes: each one's gain terms, and their
   difference summed in node order (the whole gain of a row with no
   dependent node). *)
type row_consts = {
  const_without : float array;
  const_with : float array;
  const_total : float;
}

(* Scratch reused across allocator calls (the splitting loop re-runs
   the allocator up to 16 times over near-identical buffer sets): the
   DP arrays, which are zeroed rather than reallocated, the gain and
   row-key buffers, the generation-cleared row memo, and two tables
   over the metric's dense item indices, grown on demand:

   - [owner]: the DP row owning each item, -1 for none;
   - [mark]: the item set the Eq. 1 kernel reads, emptied in O(1).

   No value survives a call, so one workspace serves any metric. *)
type workspace = {
  mutable dp_prev : float array;
  mutable dp_curr : float array;
  mutable dp_rows : bool array array;
  mutable gain_buf : float array;
  mutable key_buf : int array;
  mutable memo_keys : int array;
  mutable memo_gains : float array;
  mutable memo_gen : int array;
  mutable gen : int;
  mutable owner : int array;
  mutable mark : Metric.mark;
}

let workspace () =
  { dp_prev = [||];
    dp_curr = [||];
    dp_rows = [||];
    gain_buf = [||];
    key_buf = [||];
    memo_keys = [||];
    memo_gains = [||];
    memo_gen = [||];
    gen = 0;
    owner = [||];
    mark = Metric.mark 0 }

let add_members metric m vb =
  List.iter (fun it -> Metric.add m (Metric.item_index metric it)) vb.Vbuffer.members

(* The workspace mark holding exactly the members of [vbufs]. *)
let mark_vbufs ws metric vbufs =
  let m = ws.mark in
  Metric.clear m;
  List.iter (add_members metric m) vbufs;
  m

let block_bytes = Fpga.Resource.uram_bytes

let blocks_of_bytes bytes = (bytes + block_bytes - 1) / block_bytes

let items_of_vbufs vbufs =
  List.concat_map (fun vb -> vb.Vbuffer.members) vbufs

let set_of_vbufs vbufs =
  Metric.Item_set.of_list (items_of_vbufs vbufs)

(* The result granting SRAM to the buffers whose ids are in
   [chosen_ids], plus the spilled [(buffer, affected nodes)] rows in
   [rows] order for {!sweep_up}. *)
let finish ws metric ~capacity_blocks rows chosen_ids =
  let chosen_tbl = Hashtbl.create (2 * List.length chosen_ids + 1) in
  List.iter (fun id -> Hashtbl.replace chosen_tbl id ()) chosen_ids;
  let chosen, pending =
    List.partition (fun (vb, _) -> Hashtbl.mem chosen_tbl vb.Vbuffer.vbuf_id) rows
  in
  let chosen = List.map fst chosen in
  ( { chosen;
      spilled = List.map fst pending;
      on_chip = set_of_vbufs chosen;
      predicted_latency =
        Metric.total_latency_on metric (mark_vbufs ws metric chosen);
      capacity_blocks;
      used_blocks =
        List.fold_left
          (fun acc vb -> acc + blocks_of_bytes vb.Vbuffer.size_bytes)
          0 chosen },
    pending )

(* A dependent node's memo key at one column: bit [b] is the placement
   bit of its [b]-th earlier row [deps.(b)] (pbuf_table row [o + 1]). *)
let node_key deps pbuf_table col =
  let key = ref 0 in
  for b = 0 to Array.length deps - 1 do
    if pbuf_table.(deps.(b) + 1).(col) then key := !key lor (1 lsl b)
  done;
  !key

(* How one DP row supplies its gains: a column-independent constant, or
   a filler that writes the gain for every source column 0..cols-1 into
   the scratch buffer (reading earlier rows' placement bits). *)
type row_gain =
  | Const_gain of float
  | Fill_gains of
      (cols:int -> pbuf_table:bool array array -> gains:float array -> unit)

(* One 0/1-knapsack DP over virtual buffers.  [row_gain] supplies each
   row's gains whole-row-at-a-time (allowing the paper's table-based
   compensation to batch its memo lookups); the memo of placement bits
   is exposed to fillers through [pbuf_table].  The DP arrays come from
   the workspace and are cleared, not reallocated, on reuse. *)
let knapsack_dp ws ~capacity ~sizes ~row_gain =
  let n = Array.length sizes in
  if Array.length ws.dp_prev <= capacity then begin
    ws.dp_prev <- Array.make (capacity + 1) 0.;
    ws.dp_curr <- Array.make (capacity + 1) 0.
  end
  else begin
    Array.fill ws.dp_prev 0 (capacity + 1) 0.;
    Array.fill ws.dp_curr 0 (capacity + 1) 0.
  end;
  if
    Array.length ws.dp_rows <= n
    || (n >= 0 && Array.length ws.dp_rows.(0) <= capacity)
  then ws.dp_rows <- Array.make_matrix (n + 1) (capacity + 1) false
  else
    for i = 1 to n do
      Array.fill ws.dp_rows.(i) 0 (capacity + 1) false
    done;
  if Array.length ws.gain_buf <= capacity then
    ws.gain_buf <- Array.make (capacity + 1) 0.;
  let prev = ws.dp_prev and curr = ws.dp_curr and pbuf_table = ws.dp_rows in
  for i = 1 to n do
    let s = sizes.(i - 1) in
    if s > capacity then Array.blit prev 0 curr 0 (capacity + 1)
    else begin
      for j = 0 to s - 1 do
        curr.(j) <- prev.(j)
      done;
      match row_gain (i - 1) with
      | Const_gain g ->
        for j = s to capacity do
          let without = prev.(j) in
          let with_gain = prev.(j - s) +. g in
          if with_gain > without then begin
            curr.(j) <- with_gain;
            pbuf_table.(i).(j) <- true
          end
          else curr.(j) <- without
        done
      | Fill_gains fill ->
        let gains = ws.gain_buf in
        fill ~cols:(capacity - s + 1) ~pbuf_table ~gains;
        for j = s to capacity do
          let without = prev.(j) in
          let with_gain = prev.(j - s) +. gains.(j - s) in
          if with_gain > without then begin
            curr.(j) <- with_gain;
            pbuf_table.(i).(j) <- true
          end
          else curr.(j) <- without
        done
    end;
    Array.blit curr 0 prev 0 (capacity + 1)
  done;
  (* Backtrace the memo into the chosen index set. *)
  let rec back i j acc =
    if i = 0 then acc
    else if pbuf_table.(i).(j) then back (i - 1) (j - sizes.(i - 1)) ((i - 1) :: acc)
    else back (i - 1) j acc
  in
  back n capacity []

(* Greedy repair after the DP: while spare capacity remains, pull back any
   spilled buffer whose marginal gain against the chosen set is positive.
   This recovers value the max-structure hides from per-row compensation
   (a term only pays off once its node's larger terms are also pinned).
   [pending] pairs each spilled buffer with its affected nodes. *)
let sweep_up ws metric ~capacity_blocks (result, pending) =
  let on = mark_vbufs ws metric result.chosen in
  let rec loop result pending =
    let free = capacity_blocks - result.used_blocks in
    let candidate =
      List.filter_map
        (fun (vb, affected) ->
          let blocks = blocks_of_bytes vb.Vbuffer.size_bytes in
          if blocks > free then None
          else
            let adding =
              List.filter_map
                (fun it ->
                  let i = Metric.item_index metric it in
                  if Metric.mem on i then None else Some i)
                vb.Vbuffer.members
            in
            let gain = Metric.swing_gain_on metric on adding affected in
            if gain > 1e-15 then Some (gain, vb) else None)
        pending
    in
    match candidate with
    | [] -> result
    | first :: rest ->
      let _, best =
        List.fold_left (fun (bg, bv) (g, v) -> if g > bg then (g, v) else (bg, bv))
          first rest
      in
      let chosen = best :: result.chosen in
      let on_chip =
        List.fold_left
          (fun acc it -> Metric.Item_set.add it acc)
          result.on_chip best.Vbuffer.members
      in
      let pending =
        List.filter
          (fun (vb, _) -> vb.Vbuffer.vbuf_id <> best.Vbuffer.vbuf_id)
          pending
      in
      add_members metric on best;
      loop
        { result with
          chosen;
          spilled = List.map fst pending;
          on_chip;
          predicted_latency = Metric.total_latency_on metric on;
          used_blocks = result.used_blocks + blocks_of_bytes best.Vbuffer.size_bytes }
        pending
  in
  loop result pending

let drop_while metric ~pick result =
  (* The live allocation's items; each drop removes its buffer's. *)
  let on = Metric.mark (Metric.item_count metric) in
  Metric.mark_set metric on result.on_chip;
  let members_ix vb = List.map (Metric.item_index metric) vb.Vbuffer.members in
  (* A buffer's gain to the rest: the allocation without its members
     against the allocation with them. *)
  let benefit vb =
    Metric.swing_gain_on metric on (members_ix vb)
      (Metric.nodes_affected metric vb.Vbuffer.members)
  in
  let rec loop result dropped =
    match pick result ~benefit with
    | None -> (result, List.rev dropped)
    | Some worst ->
      let on_chip =
        List.fold_left
          (fun acc it -> Metric.Item_set.remove it acc)
          result.on_chip worst.Vbuffer.members
      in
      List.iter (Metric.remove on) (members_ix worst);
      loop
        { result with
          chosen =
            List.filter
              (fun vb -> vb.Vbuffer.vbuf_id <> worst.Vbuffer.vbuf_id)
              result.chosen;
          spilled = worst :: result.spilled;
          on_chip;
          predicted_latency = Metric.total_latency_on metric on;
          used_blocks = result.used_blocks - blocks_of_bytes worst.Vbuffer.size_bytes }
        (worst :: dropped)
  in
  loop result []

(* Degraded-mode eviction: the inverse of the knapsack.  When capacity
   shrinks under a live allocation (an SRAM bank drops out), drop chosen
   buffers in increasing benefit-density order — marginal gain against
   the current set per occupied block — until the survivors fit.  The
   runtime's bank-loss handler and the degraded-plan oracle share this
   routine.  Returns the shrunken result plus the evicted buffers in
   eviction order. *)
let evict_to_capacity metric ~capacity_bytes result =
  if capacity_bytes < 0 then
    invalid_arg "Dnnk.evict_to_capacity: negative capacity";
  let capacity_blocks = capacity_bytes / block_bytes in
  let pick result ~benefit =
    if result.used_blocks <= capacity_blocks then None
    else
      match result.chosen with
      | [] -> None
      | first :: rest ->
        let density vb =
          benefit vb /. float_of_int (max 1 (blocks_of_bytes vb.Vbuffer.size_bytes))
        in
        let _, worst =
          List.fold_left
            (fun ((bd, _) as best) vb ->
              let d = density vb in
              if d < bd then (d, vb) else best)
            (density first, first)
            rest
        in
        Some worst
  in
  let result, evicted = drop_while metric ~pick result in
  ({ result with capacity_blocks }, evicted)

(* Bound on {!Exact_iterative} refinement rounds. *)
let rounds = 4

let allocate ?(compensation = Table_approx) ?workspace:ws ?pool metric
    ~capacity_bytes vbufs =
  if capacity_bytes < 0 then invalid_arg "Dnnk.allocate: negative capacity";
  let ws = match ws with Some ws -> ws | None -> workspace () in
  let n_items = Metric.item_count metric in
  if Metric.mark_size ws.mark < n_items then ws.mark <- Metric.mark n_items;
  let capacity = capacity_bytes / block_bytes in
  (* Process buffers in decreasing static-gain order: the row-memo
     compensation then sees a node's dominant terms before its minor
     ones.  Each buffer keeps its affected nodes for the DP rows and the
     sweep-up. *)
  let rows =
    List.map
      (fun vb ->
        let affected = Metric.nodes_affected metric vb.Vbuffer.members in
        let on = mark_vbufs ws metric [ vb ] in
        (Metric.static_gain_on metric on affected, (vb, affected)))
      vbufs
    |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  let vbuf_arr = Array.of_list (List.map fst rows) in
  let affected = Array.of_list (List.map snd rows) in
  let n = Array.length vbuf_arr in
  let sizes = Array.map (fun vb -> blocks_of_bytes vb.Vbuffer.size_bytes) vbuf_arr in
  let total_blocks = Array.fold_left ( + ) 0 sizes in
  if total_blocks <= capacity then
    (* Everything fits: pinning all of it dominates any subset. *)
    fst
      (finish ws metric ~capacity_blocks:capacity rows
         (List.map (fun (vb, _) -> vb.Vbuffer.vbuf_id) rows))
  else
  (* The swept-up result choosing DP rows [chosen]. *)
  let settle chosen =
    sweep_up ws metric ~capacity_blocks:capacity
      (finish ws metric ~capacity_blocks:capacity rows
         (List.map (fun i -> vbuf_arr.(i).Vbuffer.vbuf_id) chosen))
  in
  if Array.length ws.owner < n_items then ws.owner <- Array.make n_items (-1)
  else Array.fill ws.owner 0 n_items (-1);
  (* Which DP row owns each item, for compensation lookups.  Buffers
     from the coloring pass never share an item; should a hand-built
     input violate that, the last writer owns it, and membership is
     still read from a mark of the row's own members. *)
  let owner = ws.owner in
  let members_ix =
    Array.map
      (fun vb -> List.map (Metric.item_index metric) vb.Vbuffer.members)
      vbuf_arr
  in
  Array.iteri (fun i ixs -> List.iter (fun ix -> owner.(ix) <- i) ixs) members_ix;
  (* [m] holding exactly row [index]'s members. *)
  let mark_row m index =
    Metric.clear m;
    List.iter (Metric.add m) members_ix.(index)
  in
  match compensation with
  | Table_approx ->
    (* Phase A (sequential, cheap): per row, enumerate each affected
       node's queried items to find which earlier DP rows its gain can
       read at all, compiling each item's code on the way. *)
    let earlier_seen = Array.make n false in
    (* [node_seen.(o) = stamp]: row [o] is already among the current
       node's earlier rows (a fresh stamp per node, nothing cleared). *)
    let node_seen = Array.make n (-1) in
    let stamp = ref 0 in
    let node_deps = Array.make n [||] in
    let node_codes = Array.make n [||] in
    let row_deps = Array.make n [||] in
    for index = 0 to n - 1 do
      let aff = affected.(index) in
      let m = Array.length aff in
      let nd = Array.make m [||] in
      let codes = Array.make m [||] in
      let rows_rev = ref [] in
      mark_row ws.mark index;
      for k = 0 to m - 1 do
        incr stamp;
        let node_stamp = !stamp in
        let acc = ref [] in
        (* Each queried item's code for the compiled compensation term:
           an earlier row's placement bit (pbuf_table row [o + 1]), a
           member of this row only, or off in both evaluations. *)
        let node_codes =
          Metric.map_queried_ix metric aff.(k) (fun ix ->
              let o = owner.(ix) in
              let member = Metric.mem ws.mark ix in
              if o >= 0 && o < index then begin
                if node_seen.(o) <> node_stamp then begin
                  node_seen.(o) <- node_stamp;
                  acc := o :: !acc
                end;
                if not earlier_seen.(o) then begin
                  earlier_seen.(o) <- true;
                  rows_rev := o :: !rows_rev
                end;
                Metric.code_row (o + 1) ~member
              end
              else if member then Metric.code_member
              else Metric.code_off)
        in
        if !acc <> [] then begin
          nd.(k) <- Array.of_list (List.rev !acc);
          codes.(k) <- node_codes
        end
      done;
      let deps = Array.of_list (List.rev !rows_rev) in
      Array.iter (fun o -> earlier_seen.(o) <- false) deps;
      node_deps.(index) <- nd;
      node_codes.(index) <- codes;
      row_deps.(index) <- deps
    done;
    (* Phase B: the column-independent constants of every row.  A row
       only reads the metric and marks its own members in its range's
       scratch mark, so rows run on the pool. *)
    let scratch =
      match pool with
      | None -> fun () -> ws.mark
      | Some _ -> fun () -> Metric.mark n_items
    in
    let consts =
      Pool.init_with pool n scratch (fun row index ->
          let aff = affected.(index) in
          let deps = node_deps.(index) in
          mark_row row index;
          let m = Array.length aff in
          let const_without = Array.make m 0. in
          let const_with = Array.make m 0. in
          let total = ref 0. in
          for k = 0 to m - 1 do
            if Array.length deps.(k) = 0 then begin
              const_without.(k) <- Metric.umm_latency metric aff.(k);
              const_with.(k) <- Metric.node_latency_on metric row aff.(k);
              total := !total +. const_without.(k) -. const_with.(k)
            end
          done;
          { const_without; const_with; const_total = !total })
    in
    let node_memos =
      Array.map
        (Array.map (fun d ->
             let w = Array.length d in
             if w = 0 || w > node_direct_bits then None
             else
               Some
                 { p1 = Array.make (1 lsl w) Float.nan;
                   p2 = Array.make (1 lsl w) 0. }))
        node_deps
    in
    (* Scratch for one dependent node's (p1, p2) compensation pair. *)
    let pair = Array.make 2 0. in
    (* Whole-row gain at one column, accumulated in the exact node order
       and float operation shape of the reference fold.  A dependent
       node's (p1, p2) pair lands in [pair]: a pure function of the
       node's packed earlier-row bits, evaluated by its compiled codes
       on a memo miss. *)
    let row_gain_at index col pbuf_table =
      let { const_without = cw; const_with = cm; _ } = consts.(index) in
      let memos = node_memos.(index) in
      let aff = affected.(index) in
      let deps = node_deps.(index) in
      let codes = node_codes.(index) in
      let eval k =
        Metric.node_latency_pair_ix metric aff.(k) ~codes:codes.(k)
          ~bits:pbuf_table ~col pair
      in
      let acc = ref 0. in
      for k = 0 to Array.length aff - 1 do
        if Array.length deps.(k) > 0 then begin
          (match memos.(k) with
          | None -> eval k
          | Some { p1; p2 } ->
            let key = node_key deps.(k) pbuf_table col in
            let v1 = p1.(key) in
            if Float.is_nan v1 then begin
              eval k;
              p1.(key) <- pair.(0);
              p2.(key) <- pair.(1)
            end
            else begin
              pair.(0) <- v1;
              pair.(1) <- p2.(key)
            end);
          acc := !acc +. pair.(0) -. pair.(1)
        end
        else acc := !acc +. cw.(k) -. cm.(k)
      done;
      !acc
    in
    if Array.length ws.key_buf <= capacity then
      ws.key_buf <- Array.make (capacity + 1) 0;
    (* The row memo table: a power of two at least twice the column
       count, so probing stays short at the worst load. *)
    if Array.length ws.memo_keys < 2 * (capacity + 1) then begin
      let size = ref 16 in
      while !size < 2 * (capacity + 1) do
        size := 2 * !size
      done;
      ws.memo_keys <- Array.make !size 0;
      ws.memo_gains <- Array.make !size 0.;
      ws.memo_gen <- Array.make !size 0
    end;
    (* Per column, the packed bits of every earlier row the row reads. *)
    let row_keys index ~cols ~pbuf_table =
      let keys = ws.key_buf in
      Array.fill keys 0 cols 0;
      let deps = row_deps.(index) in
      for b = 0 to Array.length deps - 1 do
        let row = pbuf_table.(deps.(b) + 1) in
        for col = 0 to cols - 1 do
          keys.(col) <- keys.(col) lor (Bool.to_int row.(col) lsl b)
        done
      done;
      keys
    in
    let fill index ~cols ~pbuf_table ~gains =
      if Array.length row_deps.(index) > max_key_bits then
        for col = 0 to cols - 1 do
          gains.(col) <- row_gain_at index col pbuf_table
        done
      else begin
        let keys = row_keys index ~cols ~pbuf_table in
        let memo_keys = ws.memo_keys
        and memo_gains = ws.memo_gains
        and memo_gen = ws.memo_gen in
        let mask = Array.length memo_keys - 1 in
        ws.gen <- ws.gen + 1;
        let gen = ws.gen in
        for col = 0 to cols - 1 do
          let key = keys.(col) in
          let slot = ref (((key * 0x9E3779B97F4A7C1) lsr 20) land mask) in
          while memo_gen.(!slot) = gen && memo_keys.(!slot) <> key do
            slot := (!slot + 1) land mask
          done;
          let slot = !slot in
          if memo_gen.(slot) = gen then gains.(col) <- memo_gains.(slot)
          else begin
            let g = row_gain_at index col pbuf_table in
            memo_gen.(slot) <- gen;
            memo_keys.(slot) <- key;
            memo_gains.(slot) <- g;
            gains.(col) <- g
          end
        done
      end
    in
    let row_gain index =
      if Array.length row_deps.(index) = 0 then
        Const_gain consts.(index).const_total
      else Fill_gains (fill index)
    in
    settle (knapsack_dp ws ~capacity ~sizes ~row_gain)
  | Exact_iterative ->
    (* Round 0 seeds with static (empty-allocation) gains; later rounds
       re-measure each buffer against the previous winner minus itself. *)
    let gains = Array.make n 0. in
    let seed baseline =
      let on = mark_vbufs ws metric baseline in
      Array.iteri
        (fun i ixs -> gains.(i) <- Metric.swing_gain_on metric on ixs affected.(i))
        members_ix
    in
    let run () =
      let row_gain index = Const_gain gains.(index) in
      settle (knapsack_dp ws ~capacity ~sizes ~row_gain)
    in
    seed [];
    let best = ref (run ()) in
    let continue = ref true in
    let round = ref 1 in
    while !continue && !round < rounds do
      seed !best.chosen;
      let next = run () in
      if next.predicted_latency < !best.predicted_latency -. 1e-12 then best := next
      else continue := false;
      incr round
    done;
    !best
