type t = Fair_share | Priority

let to_string = function Fair_share -> "fair" | Priority -> "priority"

let of_string = function
  | "fair" | "fair-share" | "fair_share" -> Some Fair_share
  | "priority" -> Some Priority
  | _ -> None

let all = [ Fair_share; Priority ]

let preferred (c : Transfer.t) (best : Transfer.t) =
  c.priority < best.priority || (c.priority = best.priority && c.key < best.key)

let share t ~contenders ~winner =
  match t with
  | Fair_share -> 1. /. float_of_int contenders
  | Priority -> if winner then 1. else 0.

let rates t jobs =
  match jobs with
  | [] -> []
  | first :: rest ->
    let contenders = List.length jobs in
    let best =
      List.fold_left (fun best c -> if preferred c best then c else best)
        first rest
    in
    List.map
      (fun (c : Transfer.t) ->
        (c.key, share t ~contenders ~winner:(c.key = best.Transfer.key)))
      jobs
