(* Host time for every measurement in the benchmark: the monotonic clock
   bechamel ships (CLOCK_MONOTONIC, nanoseconds), never wall-clock time,
   so NTP adjustments cannot bend a latency. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, t0, now ())
