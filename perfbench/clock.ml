(* The one clock of the benchmark: bechamel's monotonic clock
   (CLOCK_MONOTONIC, nanoseconds), read as float microseconds. *)

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

let since_us t0 = now_us () -. t0

(* Sleep until shortly before [t], then spin the last stretch: a
   sleep alone overshoots by 50-100us on a virtual machine, which the
   open loop would count as latency of the program. *)
let spin_us = 250.

let sleep_until_us t =
  let d = t -. now_us () in
  if d > spin_us then Unix.sleepf ((d -. spin_us) /. 1e6);
  while now_us () < t do
    Domain.cpu_relax ()
  done

let time_us f =
  let t0 = now_us () in
  let r = f () in
  (r, since_us t0)
