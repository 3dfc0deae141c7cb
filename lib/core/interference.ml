(* What every graph over one item set shares, built in O(n) words: the
   items and their lifespans, a dense never-share class per item, each
   class's start and end positions in ascending order and the item
   index.  Two items conflict for one of three reasons: their classes
   differ, their intervals overlap, or splitting added a false edge
   between them.  A graph holds only the last, as a partner list per
   item, so [conflict] reads the three causes directly and [degree]
   counts the overlaps with two binary searches.  Nothing writes a
   [lifespans] after it is built, so any number of graphs, on any
   domains, may share one. *)
type lifespans = {
  items : Metric.item array;
  intervals : Liveness.interval array;
  class_of : int array;
  starts : int array array;
  ends : int array array;
  index : (Metric.item, int) Hashtbl.t;
}

type t = {
  base : lifespans;
  partners : int list array;  (* false-edge partners, each edge once *)
}

(* Dense class ids in order of first appearance; 0 for every item
   without a partition. *)
let classes_of items = function
  | None -> Array.make (Array.length items) 0
  | Some classify ->
    let ids = Hashtbl.create 4 in
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

let lifespans ?never_share_class ~items ~intervals () =
  if Array.length items <> Array.length intervals then
    invalid_arg "Interference.build: mismatched array lengths";
  Array.iteri
    (fun i iv ->
      if iv.Liveness.end_pos < iv.Liveness.start_pos then
        invalid_arg
          (Printf.sprintf
             "Interference.lifespans: interval %d ends before it starts" i))
    intervals;
  let class_of = classes_of items never_share_class in
  let counts = Array.make (Array.fold_left max (-1) class_of + 1) 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) class_of;
  let starts = Array.map (fun k -> Array.make k 0) counts in
  let ends = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 (Array.length counts) 0;
  Array.iteri
    (fun i c ->
      starts.(c).(counts.(c)) <- intervals.(i).Liveness.start_pos;
      ends.(c).(counts.(c)) <- intervals.(i).Liveness.end_pos;
      counts.(c) <- counts.(c) + 1)
    class_of;
  Array.iter (Array.sort Int.compare) starts;
  Array.iter (Array.sort Int.compare) ends;
  let n = Array.length items in
  let index = Hashtbl.create (2 * n) in
  (* First occurrence wins, matching a forward linear scan. *)
  for i = n - 1 downto 0 do
    Hashtbl.replace index items.(i) i
  done;
  { items; intervals; class_of; starts; ends; index }

let of_lifespans ls =
  { base = ls; partners = Array.make (Array.length ls.items) [] }

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

let class_id t i =
  check_index t i;
  t.base.class_of.(i)

let partners t i =
  check_index t i;
  t.partners.(i)

let index_of_item t item = Hashtbl.find_opt t.base.index item

let add_false_edge t i j =
  check_index t i;
  check_index t j;
  if i = j then invalid_arg "Interference.add_false_edge: self edge";
  if not (List.mem j t.partners.(i)) then begin
    t.partners.(i) <- j :: t.partners.(i);
    t.partners.(j) <- i :: t.partners.(j)
  end

let conflict t i j =
  check_index t i;
  check_index t j;
  let ls = t.base in
  i <> j
  && (ls.class_of.(i) <> ls.class_of.(j)
     || Liveness.overlaps ls.intervals.(i) ls.intervals.(j)
     || List.mem j t.partners.(i))

(* The number of elements of the ascending [a] that are at most [x]. *)
let count_at_most a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let degree t i =
  check_index t i;
  let ls = t.base in
  let c = ls.class_of.(i) and iv = ls.intervals.(i) in
  let starts = ls.starts.(c) in
  (* Of the class, those starting by [i]'s end less those ending before
     its start overlap it, [i] included. *)
  let overlapping =
    count_at_most starts iv.Liveness.end_pos
    - count_at_most ls.ends.(c) (iv.Liveness.start_pos - 1)
    - 1
  in
  (* A partner that already conflicts is counted once. *)
  let false_only =
    List.fold_left
      (fun k j ->
        if ls.class_of.(j) = c && not (Liveness.overlaps iv ls.intervals.(j))
        then k + 1
        else k)
      0 t.partners.(i)
  in
  Array.length ls.items - Array.length starts + overlapping + false_only
