type strategy = Min_growth | First_fit

(* Mutable buffer accumulator during coloring.  [conflicts] is the
   union of the members' adjacency rows.  Rows are symmetric, so an item
   may join exactly when its own bit is clear there: one bit test per
   buffer, and one n/w-word union per placement. *)
type partial = {
  mutable size : int;
  mutable members : (Metric.item * int) list;  (* item, size; newest first *)
  conflicts : Bitset.t;
}

let order strategy interference sizes =
  let indices = List.init (Array.length sizes) Fun.id in
  match strategy with
  | Min_growth ->
    List.sort (fun a b -> compare sizes.(b) sizes.(a)) indices
  | First_fit ->
    (* Degrees are popcounts over adjacency rows; computing all of them
       once keeps the sort comparator allocation- and scan-free. *)
    let degree = Array.init (Array.length sizes) (Interference.degree interference) in
    List.sort (fun a b -> compare degree.(b) degree.(a)) indices

let color ?(strategy = Min_growth) interference ~sizes =
  if Array.length sizes <> Interference.item_count interference then
    invalid_arg "Coloring.color: sizes length mismatch";
  let none = { size = 0; members = []; conflicts = Bitset.create 0 } in
  let buffers = ref (Array.make 16 none) in
  let count = ref 0 in
  let min_growth = strategy = Min_growth in
  let place index =
    let size = sizes.(index) in
    let row = Interference.row interference index in
    let item = Interference.item interference index in
    (* First_fit takes the first compatible buffer in creation order;
       Min_growth the first among those whose size grows the least, so
       its scan can stop at a buffer that does not grow. *)
    let chosen = ref (-1) and best_growth = ref max_int in
    let k = ref 0 in
    while
      !k < !count
      && (!chosen < 0 || (min_growth && !best_growth > 0))
    do
      let part = !buffers.(!k) in
      if not (Bitset.mem part.conflicts index) then begin
        let growth = max 0 (size - part.size) in
        if growth < !best_growth then begin
          chosen := !k;
          best_growth := growth
        end
      end;
      incr k
    done;
    if !chosen >= 0 then begin
      let part = !buffers.(!chosen) in
      part.size <- max part.size size;
      part.members <- (item, size) :: part.members;
      Bitset.union_into ~dst:part.conflicts row
    end
    else begin
      if !count = Array.length !buffers then begin
        let grown = Array.make (2 * !count) none in
        Array.blit !buffers 0 grown 0 !count;
        buffers := grown
      end;
      !buffers.(!count) <-
        { size; members = [ (item, size) ]; conflicts = Bitset.copy row };
      incr count
    end
  in
  List.iter place (order strategy interference sizes);
  List.init !count (fun vbuf_id ->
      Vbuffer.make ~vbuf_id ~sized_members:!buffers.(vbuf_id).members)

let total_bytes buffers =
  List.fold_left (fun acc b -> acc + b.Vbuffer.size_bytes) 0 buffers
