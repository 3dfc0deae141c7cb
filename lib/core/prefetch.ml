type edge = {
  source : int;
  target : int;
  load_seconds : float;
  stall_seconds : float;
}

type t = { table : (int, edge) Hashtbl.t }

let build metric ~targets ~node_latency =
  let profiles = metric.Metric.profiles in
  let table = Hashtbl.create 64 in
  let backtrace target load =
    (* Latest k' <= target with sum of latencies over [k', target) >= load. *)
    let rec walk k elapsed =
      if elapsed >= load then (k + 1, 0.)
      else if k < 0 then (0, load -. elapsed)
      else walk (k - 1) (elapsed +. node_latency k)
    in
    walk (target - 1) 0.
  in
  List.iter
    (fun target ->
      let p = profiles.(target) in
      if p.Accel.Latency.wt_load_once <= 0. then
        invalid_arg
          (Printf.sprintf "Prefetch.build: node %d has no weight tensor" target);
      let load = p.Accel.Latency.wt_load_once in
      let source, stall = backtrace target load in
      let source = min source target in
      Hashtbl.replace table target
        { source; target; load_seconds = load; stall_seconds = stall })
    targets;
  { table }

let edge_of t target = Hashtbl.find_opt t.table target

let source_of t target = Option.map (fun e -> e.source) (edge_of t target)

let stall_seconds t target =
  match edge_of t target with Some e -> e.stall_seconds | None -> 0.

let edges t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> compare a.target b.target)

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "w%d: prefetch@%d load=%.3gms stall=%.3gms@." e.target
        e.source (e.load_seconds *. 1e3) (e.stall_seconds *. 1e3))
    (edges t)
