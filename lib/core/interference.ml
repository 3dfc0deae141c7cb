module Pair_set = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

(* What every graph over one item set shares, built in O(n) words: the
   items and their lifespans, the two interval orders the overlap fill
   walks, the never-share classes as one complement mask per class and
   the item index.  A graph materialises its packed bitset rows from it
   (O(n^2 / w) words, independent of the edge count): lifespan overlaps
   are filled a word at a time from two growing prefix sets and each
   row ors in its class's complement mask.  [conflict]/[degree] are
   then plain word-parallel bit tests with no closure calls on the
   query path.  Nothing writes a [lifespans] after it is built, so any
   number of graphs, on any domains, may share one. *)
type lifespans = {
  items : Metric.item array;
  intervals : Liveness.interval array;
  by_start : int array;
  by_end : int array;
      (* Both empty when some interval is inverted: the fill is then the
         naive pairwise one. *)
  class_of : int array;
  complements : Bitset.t array;
      (* Row [i] ors in [complements.(class_of.(i))], the items of every
         other class; both empty with fewer than two classes. *)
  index : (Metric.item, int) Hashtbl.t;
}

type t = {
  base : lifespans;
  rows : Bitset.t array;
  mutable false_edges : Pair_set.t;
}

(* Indices [0 .. n-1] in ascending [key], by a counting sort over the
   key range: keys are schedule positions, which span about the node
   count.  A range far wider than [n] (hand-built intervals) takes a
   comparison sort.  Ties may come out in any order: the overlap fill
   reads only which prefix an index joins, never its place in it. *)
let sorted_by key n =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let k = key i in
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  let lo = !lo and span = !hi - !lo in
  if n = 0 then [||]
  else if span < 0 || span > (4 * n) + 256 then begin
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> Int.compare (key a) (key b)) order;
    order
  end
  else begin
    (* [first.(k)]: where the next index of key [lo + k] goes. *)
    let first = Array.make (span + 2) 0 in
    for i = 0 to n - 1 do
      let k = key i - lo + 1 in
      first.(k) <- first.(k) + 1
    done;
    for k = 1 to span + 1 do
      first.(k) <- first.(k) + first.(k - 1)
    done;
    let order = Array.make n 0 in
    for i = 0 to n - 1 do
      let k = key i - lo in
      order.(first.(k)) <- i;
      first.(k) <- first.(k) + 1
    done;
    order
  end

(* The never-share partition as a class per item and, per class, the
   mask of every item outside it. *)
let class_masks n items classify =
  let ids = Hashtbl.create 4 in
  let class_of =
    Array.map
      (fun item ->
        let c = classify item in
        match Hashtbl.find_opt ids c with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids c id;
          id)
      items
  in
  let classes = Hashtbl.length ids in
  if classes < 2 then ([||], [||])
  else
    ( class_of,
      Array.init classes (fun c ->
          let mask = Bitset.create n in
          Array.iteri (fun i c' -> if c' <> c then Bitset.set mask i) class_of;
          mask) )

let lifespans ?never_share_class ~items ~intervals () =
  if Array.length items <> Array.length intervals then
    invalid_arg "Interference.build: mismatched array lengths";
  let n = Array.length items in
  let start_of i = intervals.(i).Liveness.start_pos in
  let end_of i = intervals.(i).Liveness.end_pos in
  let valid = ref true in
  for i = 0 to n - 1 do
    if end_of i < start_of i then valid := false
  done;
  let by_start, by_end =
    if !valid then (sorted_by start_of n, sorted_by end_of n) else ([||], [||])
  in
  let class_of, complements =
    match never_share_class with
    | Some classify -> class_masks n items classify
    | None -> ([||], [||])
  in
  let index = Hashtbl.create (2 * n) in
  (* First occurrence wins, matching a forward linear scan. *)
  for i = n - 1 downto 0 do
    Hashtbl.replace index items.(i) i
  done;
  { items; intervals; by_start; by_end; class_of; complements; index }

(* Fills empty rows.  For well-formed intervals, [j] overlaps [i] exactly
   when [start_j <= end_i] and not [end_j < start_i], so row [i] is the
   first set minus the second minus [i] itself.  Both sets are prefixes
   of a sorted order: one pass in ascending end order grows
   [{j : start_j <= end_i}] and copies it into each row, a second in
   ascending start order grows [{j : end_j < start_i}] and subtracts it.
   The only transient state is one bitset. *)
let fill_overlaps rows ls =
  let intervals = ls.intervals in
  let n = Array.length intervals in
  if n > 0 && Array.length ls.by_start = 0 then
    (* Degenerate hand-built intervals: keep the naive quadratic fill. *)
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Liveness.overlaps intervals.(i) intervals.(j) then begin
          Bitset.set rows.(i) j;
          Bitset.set rows.(j) i
        end
      done
    done
  else begin
    let start_of i = intervals.(i).Liveness.start_pos in
    let end_of i = intervals.(i).Liveness.end_pos in
    let by_start = ls.by_start and by_end = ls.by_end in
    let prefix = Bitset.create n in
    let next = ref 0 in
    Array.iter
      (fun i ->
        while !next < n && start_of by_start.(!next) <= end_of i do
          Bitset.set prefix by_start.(!next);
          incr next
        done;
        Bitset.copy_into ~dst:rows.(i) prefix)
      by_end;
    Bitset.reset prefix;
    next := 0;
    Array.iter
      (fun i ->
        while !next < n && end_of by_end.(!next) < start_of i do
          Bitset.set prefix by_end.(!next);
          incr next
        done;
        Bitset.diff_into ~dst:rows.(i) prefix;
        Bitset.clear rows.(i) i)
      by_start
  end

let of_lifespans ls =
  let n = Array.length ls.items in
  let rows = Array.init n (fun _ -> Bitset.create n) in
  fill_overlaps rows ls;
  if Array.length ls.complements > 0 then
    Array.iteri
      (fun i c -> Bitset.union_into ~dst:rows.(i) ls.complements.(c))
      ls.class_of;
  { base = ls; rows; false_edges = Pair_set.empty }

let build ?never_share_class ~items ~intervals () =
  of_lifespans (lifespans ?never_share_class ~items ~intervals ())

let item_count t = Array.length t.base.items

let check_index t i =
  if i < 0 || i >= item_count t then
    invalid_arg (Printf.sprintf "Interference: index %d out of range" i)

let item t i =
  check_index t i;
  t.base.items.(i)

let interval t i =
  check_index t i;
  t.base.intervals.(i)

let index_of_item t item = Hashtbl.find_opt t.base.index item

let ordered i j = if i < j then (i, j) else (j, i)

let add_false_edge t i j =
  check_index t i;
  check_index t j;
  if i = j then invalid_arg "Interference.add_false_edge: self edge";
  t.false_edges <- Pair_set.add (ordered i j) t.false_edges;
  Bitset.set t.rows.(i) j;
  Bitset.set t.rows.(j) i

let false_edges t = Pair_set.elements t.false_edges

let conflict t i j =
  check_index t i;
  check_index t j;
  i <> j && Bitset.mem t.rows.(i) j

let row t i =
  check_index t i;
  t.rows.(i)

let degree t i =
  check_index t i;
  Bitset.cardinal t.rows.(i)
