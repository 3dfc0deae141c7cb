(* Binary min-heap of (time, tag) pairs over parallel arrays.  The
   discrete-event engines push candidate wake-up times as state changes
   and pop the earliest; stale entries are the caller's to detect (lazy
   invalidation), so pushes never need a decrease-key. *)

type t = {
  mutable times : float array;
  mutable tags : int array;
  mutable size : int;
}

let create () = { times = Array.make 64 0.; tags = Array.make 64 0; size = 0 }

let length t = t.size

let clear t = t.size <- 0

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0. in
  let tags = Array.make cap 0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.tags 0 tags 0 t.size;
  t.times <- times;
  t.tags <- tags

let swap t i j =
  let ti = t.times.(i) and gi = t.tags.(i) in
  t.times.(i) <- t.times.(j);
  t.tags.(i) <- t.tags.(j);
  t.times.(j) <- ti;
  t.tags.(j) <- gi

let push t ~time tag =
  if t.size = Array.length t.times then grow t;
  t.times.(t.size) <- time;
  t.tags.(t.size) <- tag;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && t.times.((!i - 1) / 2) > t.times.(!i) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let min_time t = if t.size = 0 then infinity else t.times.(0)

let min_tag t =
  if t.size = 0 then invalid_arg "Event_queue.min_tag: empty";
  t.tags.(0)

let drop_min t =
  if t.size = 0 then invalid_arg "Event_queue.drop_min: empty";
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.times.(0) <- t.times.(t.size);
    t.tags.(0) <- t.tags.(t.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && t.times.(l) < t.times.(!smallest) then smallest := l;
      if r < t.size && t.times.(r) < t.times.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap t !i !smallest;
        i := !smallest
      end
    done
  end
