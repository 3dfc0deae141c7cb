(* Coloring against a reference: the member-scan placement (a buffer is
   compatible when none of its members conflicts with the item; the
   candidates are filtered, then First_fit takes the first and
   Min_growth the first of least growth).  [Coloring.color] must return
   identical virtual buffers (ids, member order, sizes) for both
   strategies, on generated graphs and on random intervals (duplicate,
   touching and nested) in up to three never-share classes, before and
   after false edges, some of them between items that already
   conflict. *)

module Metric = Lcmm.Metric
module Interference = Lcmm.Interference
module Coloring = Lcmm.Coloring
module Vbuffer = Lcmm.Vbuffer

type partial = {
  mutable size : int;
  mutable members : (int * Metric.item * int) list;
}

let reference_color strategy interference ~sizes =
  let n = Array.length sizes in
  let indices = List.init n Fun.id in
  let order =
    match strategy with
    | Coloring.Min_growth -> List.sort (fun a b -> compare sizes.(b) sizes.(a)) indices
    | Coloring.First_fit ->
      let degree = Array.init n (Interference.degree interference) in
      List.sort (fun a b -> compare degree.(b) degree.(a)) indices
  in
  let buffers = ref [] in
  let place index =
    let size = sizes.(index) in
    let compatible part =
      List.for_all
        (fun (j, _, _) -> not (Interference.conflict interference index j))
        part.members
    in
    let candidates = List.filter compatible !buffers in
    let chosen =
      match strategy with
      | Coloring.First_fit -> (
        match candidates with part :: _ -> Some part | [] -> None)
      | Coloring.Min_growth ->
        let growth part = max 0 (size - part.size) in
        List.fold_left
          (fun best part ->
            match best with
            | None -> Some part
            | Some b -> if growth part < growth b then Some part else best)
          None candidates
    in
    let member = (index, Interference.item interference index, size) in
    match chosen with
    | Some part ->
      part.size <- max part.size size;
      part.members <- member :: part.members
    | None -> buffers := !buffers @ [ { size; members = [ member ] } ]
  in
  List.iter place order;
  List.mapi
    (fun vbuf_id part ->
      Vbuffer.make ~vbuf_id
        ~sized_members:(List.map (fun (_, item, s) -> (item, s)) part.members))
    !buffers

let never_share_class = function
  | Metric.Weight_of _ | Metric.Weight_slice _ -> 1
  | Metric.Feature_value _ -> 0

let check_same ~label interference sizes =
  List.iter
    (fun strategy ->
      let want = reference_color strategy interference ~sizes in
      let got = Coloring.color ~strategy interference ~sizes in
      if got <> want then
        Alcotest.failf "%s (%s): %d vbufs, reference %d" label
          (match strategy with
           | Coloring.Min_growth -> "min_growth"
           | Coloring.First_fit -> "first_fit")
          (List.length got) (List.length want))
    [ Coloring.Min_growth; Coloring.First_fit ]

(* A third class: every third feature value never shares with the other
   features either. *)
let three_classes = function
  | Metric.Feature_value v when v mod 3 = 0 -> 2
  | item -> never_share_class item

(* Random false edges drawn blind, so some join items that already
   conflict and some repeat an earlier edge; recolors after each. *)
let add_blind_edges ~label st interference sizes count =
  let n = Array.length sizes in
  if n >= 2 then
    for e = 1 to count do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i <> j then begin
        Interference.add_false_edge interference i j;
        check_same
          ~label:(Printf.sprintf "%s after blind edge %d" label e)
          interference sizes
      end
    done

let test_reference () =
  let config = Accel.Config.make ~style:Accel.Config.Lcmm Tensor.Dtype.I16 in
  let shared = ref 0 and edges = ref 0 in
  List.iteri
    (fun f family ->
      List.iter
        (fun nodes ->
          let st = Random.State.make [| 0x5a1; f; nodes |] in
          let g = Check.Gen.sized_graph ~family st ~nodes in
          let metric = Metric.build g (Accel.Latency.profile_graph config g) in
          let items =
            Array.of_list (Metric.eligible_items metric ~memory_bound_only:false)
          in
          let sizes =
            Array.map (Metric.item_size_bytes Tensor.Dtype.I16 metric) items
          in
          let intervals =
            Array.map
              (Lcmm.Liveness.item_interval g ~prefetch_source:(fun _ -> None))
              items
          in
          let interference =
            Interference.build ~never_share_class ~items ~intervals ()
          in
          check_same
            ~label:(Printf.sprintf "%s/%d, three classes"
                      (Check.Gen.family_name family) nodes)
            (Interference.build ~never_share_class:three_classes ~items
               ~intervals ())
            sizes;
          let n = Array.length items in
          let label = Printf.sprintf "%s/%d" (Check.Gen.family_name family) nodes in
          check_same ~label interference sizes;
          shared :=
            !shared
            + List.length
                (List.filter
                   (fun vb -> Vbuffer.member_count vb > 1)
                   (Coloring.color interference ~sizes));
          (* A few random false edges between items that do not conflict
             yet, recoloring after each. *)
          let added = ref 0 in
          for _ = 1 to 200 do
            if !added < 4 && n >= 2 then begin
              let i = Random.State.int st n and j = Random.State.int st n in
              if i <> j && not (Interference.conflict interference i j) then begin
                Interference.add_false_edge interference i j;
                incr added;
                check_same
                  ~label:(Printf.sprintf "%s after %d false edges" label !added)
                  interference sizes
              end
            end
          done;
          edges := !edges + !added;
          add_blind_edges ~label st interference sizes 4)
        [ 40; 150; 400 ])
    Check.Gen.families;
  (* Random intervals over a short schedule, so many are equal, touch
     or nest, in 1-3 classes, with sizes that tie. *)
  for case = 0 to 99 do
    let st = Random.State.make [| 0x5a2; case |] in
    let n = 1 + Random.State.int st 120 in
    let span = 1 + Random.State.int st 16 in
    let intervals =
      Array.init n (fun _ ->
          let a = Random.State.int st span and b = Random.State.int st span in
          Lcmm.Liveness.make ~start_pos:(min a b) ~end_pos:(max a b))
    in
    let classes = 1 + Random.State.int st 3 in
    let class_of = Array.init n (fun _ -> Random.State.int st classes) in
    let sizes = Array.init n (fun _ -> 1 + Random.State.int st 8) in
    let items = Array.init n (fun i -> Metric.Feature_value i) in
    let never_share_class = function
      | Metric.Feature_value i -> class_of.(i)
      | Metric.Weight_of _ | Metric.Weight_slice _ -> assert false
    in
    let interference =
      Interference.build ~never_share_class ~items ~intervals ()
    in
    let label = Printf.sprintf "random case %d" case in
    check_same ~label interference sizes;
    add_blind_edges ~label st interference sizes (Random.State.int st 6)
  done;
  Alcotest.(check bool) "some buffers are shared" true (!shared > 0);
  Alcotest.(check bool) "false edges were added" true (!edges > 20)

let suite =
  [ Alcotest.test_case "same buffers as the member-scan reference" `Quick
      test_reference ]
