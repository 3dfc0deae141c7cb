module Pair_set = Set.Make (struct
  type t = int * int

  let compare = Stdlib.compare
end)

(* Adjacency is materialised once at [build] into packed bitset rows:
   lifespan overlaps are filled a word at a time from two growing prefix
   sets (O(n log n + n^2 / w) words, independent of the edge count)
   and [never_share_class] partitions are or-ed in as whole class
   masks.  [conflict]/[degree] are then plain word-parallel bit tests
   with no closure calls on the query path. *)
type t = {
  items : Metric.item array;
  intervals : Liveness.interval array;
  rows : Bitset.t array;
  index : (Metric.item, int) Hashtbl.t;
  mutable false_edges : Pair_set.t;
}

let sorted_by key n =
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare (key a) (key b)) order;
  order

(* Fills empty rows.  For well-formed intervals, [j] overlaps [i] exactly
   when [start_j <= end_i] and not [end_j < start_i], so row [i] is the
   first set minus the second minus [i] itself.  Both sets are prefixes
   of a sorted order: one pass in ascending end order grows
   [{j : start_j <= end_i}] and copies it into each row, a second in
   ascending start order grows [{j : end_j < start_i}] and subtracts it.
   The only transient state is one bitset and the two orders. *)
let fill_overlaps rows intervals =
  let n = Array.length intervals in
  let start_of i = intervals.(i).Liveness.start_pos in
  let end_of i = intervals.(i).Liveness.end_pos in
  let valid = ref true in
  for i = 0 to n - 1 do
    if end_of i < start_of i then valid := false
  done;
  if not !valid then
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
    let by_start = sorted_by start_of n in
    let by_end = sorted_by end_of n in
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

let fill_classes rows items classify =
  let n = Array.length items in
  let classes = Array.map classify items in
  let masks = Hashtbl.create 4 in
  Array.iteri
    (fun i c ->
      let mask =
        match Hashtbl.find_opt masks c with
        | Some m -> m
        | None ->
            let m = Bitset.create n in
            Hashtbl.add masks c m;
            m
      in
      Bitset.set mask i)
    classes;
  if Hashtbl.length masks > 1 then
    Array.iteri
      (fun i c ->
        Hashtbl.iter
          (fun c' mask -> if c' <> c then Bitset.union_into ~dst:rows.(i) mask)
          masks)
      classes

let build ?never_share_class ~items ~intervals () =
  if Array.length items <> Array.length intervals then
    invalid_arg "Interference.build: mismatched array lengths";
  let n = Array.length items in
  let rows = Array.init n (fun _ -> Bitset.create n) in
  fill_overlaps rows intervals;
  (match never_share_class with
  | Some classify -> fill_classes rows items classify
  | None -> ());
  let index = Hashtbl.create (2 * n) in
  (* First occurrence wins, matching a forward linear scan. *)
  for i = n - 1 downto 0 do
    Hashtbl.replace index items.(i) i
  done;
  { items; intervals; rows; index; false_edges = Pair_set.empty }

let item_count t = Array.length t.items

let check_index t i =
  if i < 0 || i >= item_count t then
    invalid_arg (Printf.sprintf "Interference: index %d out of range" i)

let item t i =
  check_index t i;
  t.items.(i)

let interval t i =
  check_index t i;
  t.intervals.(i)

let index_of_item t item = Hashtbl.find_opt t.index item

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
