type strategy = Min_growth | First_fit

(* Mutable buffer accumulator during coloring.  Members conflict with
   none of each other, so they share one class and their intervals are
   pairwise disjoint: sorted by start, their ends are sorted too. *)
type partial = {
  mutable size : int;
  mutable members : (Metric.item * int) list;  (* item, size; newest first *)
  mutable spans : int array;
      (* Members' intervals by start, as start/end pairs in the first
         [2 * count] slots. *)
  mutable count : int;
}

(* Where the interval [s, e] goes among the buffer's members, or -1 when
   it overlaps one: the last member starting at or before [e] must end
   before [s].  The search runs a fixed number of steps, each adding
   [half] or 0 to [base] without a branch (a tenth faster than a
   branching search on the 4096-node mixed graph). *)
let slot part s e =
  let spans = part.spans in
  let base = ref 0 and len = ref part.count in
  while !len > 1 do
    let half = !len lsr 1 in
    let le = Bool.to_int (spans.(2 * (!base + half)) <= e) in
    base := !base + (half land -le);
    len := !len - half
  done;
  let b = !base in
  if spans.(2 * b) > e then 0
  else if spans.((2 * b) + 1) < s then b + 1
  else -1

let insert part at s e =
  let n = 2 * part.count in
  if n = Array.length part.spans then begin
    let grown = Array.make (2 * n) 0 in
    Array.blit part.spans 0 grown 0 n;
    part.spans <- grown
  end;
  Array.blit part.spans (2 * at) part.spans ((2 * at) + 2) (n - (2 * at));
  part.spans.(2 * at) <- s;
  part.spans.((2 * at) + 1) <- e;
  part.count <- part.count + 1

(* Whether buffer [b] already holds one of the item's false-edge
   partners, by their owners. *)
let rec holds_partner owner b = function
  | [] -> false
  | p :: rest -> owner.(p) = b || holds_partner owner b rest

let order strategy interference sizes =
  let indices = List.init (Array.length sizes) Fun.id in
  match strategy with
  | Min_growth ->
    List.sort (fun a b -> compare sizes.(b) sizes.(a)) indices
  | First_fit ->
    (* Computing every degree once keeps the sort comparator
       allocation- and search-free. *)
    let degree =
      Array.init (Array.length sizes) (Interference.degree interference)
    in
    List.sort (fun a b -> compare degree.(b) degree.(a)) indices

let color ?(strategy = Min_growth) interference ~sizes =
  let n = Array.length sizes in
  if n <> Interference.item_count interference then
    invalid_arg "Coloring.color: sizes length mismatch";
  (* At most one buffer per item.  Each buffer's class sits apart, so
     the scan passes other classes' buffers without loading them. *)
  let buffers =
    Array.make n { size = 0; members = []; spans = [||]; count = 0 }
  in
  let classes = Array.make n (-1) in
  let count = ref 0 in
  let owner = Array.make n (-1) in
  let place index =
    let size = sizes.(index) in
    let item = Interference.item interference index in
    let cls = Interference.class_id interference index in
    let { Liveness.start_pos = s; end_pos = e } =
      Interference.interval interference index
    in
    let partners = Interference.partners interference index in
    (* The first compatible buffer in creation order. *)
    let live = !count in
    let chosen = ref (-1) and at = ref (-1) and k = ref 0 in
    while !chosen < 0 && !k < live do
      let b = !k in
      if classes.(b) = cls then begin
        let a = slot buffers.(b) s e in
        if a >= 0 && not (holds_partner owner b partners) then begin
          chosen := b;
          at := a
        end
      end;
      k := b + 1
    done;
    if !chosen >= 0 then begin
      let part = buffers.(!chosen) in
      part.size <- max part.size size;
      part.members <- (item, size) :: part.members;
      insert part !at s e;
      owner.(index) <- !chosen
    end
    else begin
      buffers.(live) <-
        { size; members = [ (item, size) ]; spans = [| s; e |]; count = 1 };
      classes.(live) <- cls;
      owner.(index) <- live;
      count := live + 1
    end
  in
  List.iter place (order strategy interference sizes);
  List.init !count (fun vbuf_id ->
      Vbuffer.make ~vbuf_id ~sized_members:buffers.(vbuf_id).members)

let total_bytes buffers =
  List.fold_left (fun acc b -> acc + b.Vbuffer.size_bytes) 0 buffers
