type t = Fair_share | Priority

let to_string = function Fair_share -> "fair" | Priority -> "priority"

let of_string = function
  | "fair" | "fair-share" | "fair_share" -> Some Fair_share
  | "priority" -> Some Priority
  | _ -> None

let all = [ Fair_share; Priority ]

let preferred (key, priority) (best_key, best_priority) =
  priority < best_priority || (priority = best_priority && key < best_key)

let share t ~contenders ~winner =
  match t with
  | Fair_share -> 1. /. float_of_int contenders
  | Priority -> if winner then 1. else 0.

let rates t jobs =
  match jobs with
  | [] -> []
  | first :: rest ->
    let contenders = List.length jobs in
    let best_key, _ =
      List.fold_left (fun best c -> if preferred c best then c else best)
        first rest
    in
    List.map
      (fun (key, _) -> (key, share t ~contenders ~winner:(key = best_key)))
      jobs
