type 'a entry = {
  value : 'a;
  bytes : int;
  mutable stamp : int;  (* recency: larger = more recently used *)
}

type 'a t = {
  table : (string, 'a entry) Hashtbl.t;
  max_entries : int;
  max_bytes : int;
  mutable clock : int;
  mutable bytes_held : int;
}

let create ~max_entries ~max_bytes =
  if max_entries <= 0 then invalid_arg "Lru.create: max_entries must be positive";
  if max_bytes <= 0 then invalid_arg "Lru.create: max_bytes must be positive";
  { table = Hashtbl.create 64; max_entries; max_bytes; clock = 0; bytes_held = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e ->
    e.stamp <- tick t;
    Some e.value

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some e ->
    t.bytes_held <- t.bytes_held - e.bytes;
    Hashtbl.remove t.table key

let oldest t =
  Hashtbl.fold
    (fun key e acc ->
      match acc with
      | Some (_, best) when best.stamp <= e.stamp -> acc
      | Some _ | None -> Some (key, e))
    t.table None

let add t ~key ~bytes value =
  remove t key;
  Hashtbl.replace t.table key { value; bytes; stamp = tick t };
  t.bytes_held <- t.bytes_held + bytes;
  let evicted = ref [] in
  let over () =
    (Hashtbl.length t.table > t.max_entries
    || t.bytes_held > t.max_bytes)
    && Hashtbl.length t.table > 1
  in
  while over () do
    match oldest t with
    | None -> assert false
    | Some (old_key, e) ->
      remove t old_key;
      evicted := (old_key, e.value) :: !evicted
  done;
  List.rev !evicted

let length t = Hashtbl.length t.table

let total_bytes t = t.bytes_held

(* Snapshot for drain: every resident entry, most recently used first,
   so a bounded flush writes back the hottest entries first.  Recency
   stamps are not touched — a snapshot is not a use. *)
let bindings t =
  Hashtbl.fold (fun key e acc -> (key, e.value, e.stamp) :: acc) t.table []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  |> List.map (fun (key, value, _) -> (key, value))
