type t = Greedy | Edf | Optimized

let to_string = function
  | Greedy -> "greedy"
  | Edf -> "edf"
  | Optimized -> "optimized"

let of_string = function
  | "greedy" -> Some Greedy
  | "edf" -> Some Edf
  | "optimized" -> Some Optimized
  | _ -> None

let all = [ Greedy; Edf; Optimized ]

let exclusive = function Greedy -> false | Edf | Optimized -> true

(* Earliest deadline, ties by priority then key. *)
let edf_before (p : Transfer.t) (best : Transfer.t) =
  p.clk.deadline < best.clk.deadline
  || (p.clk.deadline = best.clk.deadline
     && (p.priority < best.priority
        || (p.priority = best.priority && p.key < best.key)))

(* [Optimized] follows the searched static order: ranks come from the
   schedule optimizer's chosen transfer order, and the EDF order breaks
   ties among equally-ranked transfers, so with all ranks 0 (no rank
   table) it is exactly [Edf].  [Greedy] admits everything and is
   ordered as [Edf]. *)
let more_urgent t (p : Transfer.t) (best : Transfer.t) =
  match t with
  | Greedy | Edf -> edf_before p best
  | Optimized ->
    p.clk.rank < best.clk.rank
    || (p.clk.rank = best.clk.rank && edf_before p best)

let eligible t ready =
  match ready with
  | [] -> []
  | first :: rest ->
    if exclusive t then
      [ (List.fold_left
           (fun best p -> if more_urgent t p best then p else best)
           first rest)
          .Transfer.key ]
    else List.map (fun (p : Transfer.t) -> p.key) ready
