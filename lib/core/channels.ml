module Latency = Accel.Latency

(* DDR channel assignment (paper-adjacent: SoMa's communication
   scheduling treats the channel a transfer lands on as a planning
   decision).  The device stripes its aggregate bandwidth over
   [channels] equal channels; this pass statically maps every DDR
   stream a plan will issue — weight loads (prefetch or demand),
   streamed weight tiles, input-feature streams, output write-backs —
   onto a channel, balancing total bytes.  With [channels = 1]
   everything lands on channel 0 and the runtime's aggregate fluid-bus
   model is recovered exactly. *)

type stream_class = Wt_load | Wt_stream | If_stream | Of_stream

type assignment = {
  channels : int;
  wt_load_channel : int array;    (* per node; -1 = no such stream *)
  wt_stream_channel : int array;
  if_channel : int array;
  of_channel : int array;
  channel_bytes : float array;    (* total assigned DDR bytes per channel *)
}

(* Mirror of Sim.Node_model.pinned_fraction, local to core (sim depends
   on core, not the other way around). *)
let pinned_fraction (metric : Metric.t) ~on_chip id =
  let k = metric.Metric.slices.(id) in
  if k = 1 then
    if Metric.Item_set.mem (Metric.Weight_of id) on_chip then 1. else 0.
  else begin
    let count = ref 0 in
    for index = 0 to k - 1 do
      if
        Metric.Item_set.mem
          (Metric.Weight_slice { node = id; index; of_k = k })
          on_chip
      then incr count
    done;
    float_of_int !count /. float_of_int k
  end

let class_rank = function
  | Wt_load -> 0
  | Wt_stream -> 1
  | If_stream -> 2
  | Of_stream -> 3

let assign ~channels (metric : Metric.t) ~on_chip =
  let channels = max 1 channels in
  let profiles = metric.Metric.profiles in
  let n = Array.length profiles in
  let a =
    { channels;
      wt_load_channel = Array.make n (-1);
      wt_stream_channel = Array.make n (-1);
      if_channel = Array.make n (-1);
      of_channel = Array.make n (-1);
      channel_bytes = Array.make channels 0. }
  in
  (* Collect every stream the runtime can issue, with its DDR bytes. *)
  let streams = ref [] in
  Array.iteri
    (fun id (p : Latency.profile) ->
      let frac = pinned_fraction metric ~on_chip id in
      if frac > 0. && p.Latency.wt_once_bytes > 0 then
        streams :=
          (float_of_int p.Latency.wt_once_bytes *. frac, Wt_load, id)
          :: !streams;
      if p.Latency.wt_term > 0. && frac < 1. && p.Latency.wt_stream_bytes > 0
      then
        streams :=
          (float_of_int p.Latency.wt_stream_bytes *. (1. -. frac),
           Wt_stream, id)
          :: !streams;
      let if_bytes = Traffic.if_stream_bytes ~on_chip p in
      if if_bytes > 0 then
        streams := (float_of_int if_bytes, If_stream, id) :: !streams;
      if
        p.Latency.of_stream_bytes > 0
        && not (Metric.Item_set.mem (Metric.Feature_value id) on_chip)
      then
        streams :=
          (float_of_int p.Latency.of_stream_bytes, Of_stream, id) :: !streams)
    profiles;
  (* Longest-processing-time greedy: heaviest stream first onto the
     least-loaded channel.  Ties break deterministically (node id, then
     class order, then lowest channel), so the assignment is a pure
     function of the plan. *)
  let ordered =
    List.sort
      (fun (b1, c1, n1) (b2, c2, n2) ->
        match compare b2 b1 with
        | 0 -> (
          match compare n1 n2 with
          | 0 -> compare (class_rank c1) (class_rank c2)
          | c -> c)
        | c -> c)
      !streams
  in
  List.iter
    (fun (bytes, cls, id) ->
      let best = ref 0 in
      for c = 1 to channels - 1 do
        if a.channel_bytes.(c) < a.channel_bytes.(!best) then best := c
      done;
      let c = !best in
      a.channel_bytes.(c) <- a.channel_bytes.(c) +. bytes;
      (match cls with
      | Wt_load -> a.wt_load_channel.(id) <- c
      | Wt_stream -> a.wt_stream_channel.(id) <- c
      | If_stream -> a.if_channel.(id) <- c
      | Of_stream -> a.of_channel.(id) <- c))
    ordered;
  a

let channel_for a cls node =
  let arr =
    match cls with
    | Wt_load -> a.wt_load_channel
    | Wt_stream -> a.wt_stream_channel
    | If_stream -> a.if_channel
    | Of_stream -> a.of_channel
  in
  if node < 0 || node >= Array.length arr then 0
  else
    let c = arr.(node) in
    if c < 0 || c >= a.channels then 0 else c

let balance a =
  let lo = Array.fold_left Float.min Float.max_float a.channel_bytes in
  let hi = Array.fold_left Float.max 0. a.channel_bytes in
  if hi <= 0. then 1. else lo /. hi

let total_bytes a = Array.fold_left ( +. ) 0. a.channel_bytes
