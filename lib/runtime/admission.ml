type demand = {
  sram_bytes : int;
  bandwidth : float;
}

type decision =
  | Admitted of { grant_bytes : int }
  | Queued of { reason : string }
  | Rejected of { reason : string }

(* A tenant requires the smaller of its demand and one DNNK block, below
   which a partition holds no pinned tensor at all: a tenant that pins
   nothing (demand 0) is admissible with a zero grant. *)
let required d = min d.sram_bytes Lcmm.Dnnk.block_bytes

let decide ~partition ~budget_bytes ~board_bandwidth ~overcommit demands =
  if overcommit <= 0. then invalid_arg "Admission.decide: overcommit must be > 0";
  let n = Array.length demands in
  let decisions = Array.make n (Queued { reason = "not considered" }) in
  (* Tenants are considered in priority order; [admitted] holds indices
     in that order. *)
  let admitted = ref [] in
  let grants_of indices =
    let idx = Array.of_list indices in
    let ds = Array.map (fun i -> demands.(i).sram_bytes) idx in
    (idx, Partition.split partition ~budget_bytes ~demands:ds)
  in
  let feasible indices =
    let idx, grants = grants_of indices in
    let sram_ok = ref true in
    Array.iteri
      (fun k i ->
        if grants.(k) < required demands.(i) then
          sram_ok := false)
      idx;
    let sram_ok = !sram_ok in
    let bw =
      Array.fold_left (fun acc i -> acc +. demands.(i).bandwidth) 0. idx
    in
    let bw_ok = Array.length idx <= 1 || bw <= overcommit *. board_bandwidth in
    (sram_ok, bw_ok)
  in
  for i = 0 to n - 1 do
    let d = demands.(i) in
    if budget_bytes < required d then
      decisions.(i) <-
        Rejected
          { reason =
              Printf.sprintf
                "SRAM demand needs at least %d bytes but the board budget is %d"
                (required d) budget_bytes }
    else begin
      let candidate = !admitted @ [ i ] in
      match feasible candidate with
      | true, true -> admitted := candidate
      | false, _ ->
        decisions.(i) <-
          Queued
            { reason =
                "SRAM partition would fall below a tenant's minimum share" }
      | true, false ->
        decisions.(i) <-
          Queued
            { reason =
                Printf.sprintf
                  "aggregate bandwidth demand would exceed %.1fx the board \
                   bandwidth"
                  overcommit }
    end
  done;
  (* Final grants over the admitted set. *)
  let idx, grants = grants_of !admitted in
  Array.iteri
    (fun k i -> decisions.(i) <- Admitted { grant_bytes = grants.(k) })
    idx;
  decisions
