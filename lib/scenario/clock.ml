let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let since t0 = now () -. t0

let spin s =
  let stop = now () +. s in
  while now () < stop do
    ignore (Sys.opaque_identity ())
  done

let await_respawn (m : Topk_service.Metrics.t) =
  let deadline = now () +. 5. in
  while
    Topk_service.Metrics.Counter.get m.Topk_service.Metrics.respawns = 0
    && now () < deadline
  do
    Unix.sleepf 0.005
  done
