type outcome = {
  result : Dnnk.result;
  iterations : int;
  false_edges : int;
  history : float list;
  converged : bool;
}

(* Index of an item in the interference graph (first occurrence, via
   the graph's item index). *)
let index_of = Interference.index_of_item

(* The split candidate: largest spilled buffer with >= 2 members whose top
   two members are not already separated by an edge. *)
let candidate interference spilled =
  let viable vb =
    match vb.Vbuffer.members with
    | first :: second :: _ -> (
      match index_of interference first, index_of interference second with
      | Some i, Some j when not (Interference.conflict interference i j) ->
        Some (vb, i, j)
      | Some _, Some _ | None, _ | Some _, None -> None)
    | [] | [ _ ] -> None
  in
  List.filter_map viable spilled
  |> List.fold_left
       (fun best ((vb, _, _) as cand) ->
         match best with
         | Some (b, _, _) when b.Vbuffer.size_bytes >= vb.Vbuffer.size_bytes -> best
         | Some _ | None -> Some cand)
       None

let run ?(max_iterations = 16) ?compensation ?strategy ?workspace metric
    interference ~sizes ~capacity_bytes initial =
  (* [history] collects the objective after the initial allocation and
     after each *accepted* re-run, newest first; the acceptance test
     ([< best - 1e-12]) makes it strictly decreasing, which the zoo
     regression tests pin down.  [converged] records whether the loop
     stopped because no candidate improved (true) or only because it
     hit the iteration bound (false). *)
  let rec loop best iterations edges history =
    if iterations >= max_iterations then
      { result = best;
        iterations;
        false_edges = edges;
        history = List.rev history;
        converged = false }
    else
      match candidate interference best.Dnnk.spilled with
      | None ->
        { result = best;
          iterations;
          false_edges = edges;
          history = List.rev history;
          converged = true }
      | Some (_vb, i, j) ->
        Interference.add_false_edge interference i j;
        let vbufs = Coloring.color ?strategy interference ~sizes in
        let next =
          Dnnk.allocate ?compensation ?workspace metric ~capacity_bytes vbufs
        in
        if next.Dnnk.predicted_latency < best.Dnnk.predicted_latency -. 1e-12 then
          loop next (iterations + 1) (edges + 1)
            (next.Dnnk.predicted_latency :: history)
        else
          { result = best;
            iterations;
            false_edges = edges + 1;
            history = List.rev history;
            converged = true }
  in
  loop initial 0 0 [ initial.Dnnk.predicted_latency ]
