(** The one clock of the scenario kit: bechamel's monotonic clock
    (CLOCK_MONOTONIC), read as float seconds.  It never steps, so a
    stepped system clock cannot cut a busy task short or end a bounded
    wait early. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin. *)

val since : float -> float
(** [since t0] is [now () -. t0]. *)

val spin : float -> unit
(** Busy-wait for the given number of seconds. *)

val await_respawn : Topk_service.Metrics.t -> unit
(** Poll (every 5ms, for at most 5s) until the pool has recorded a
    worker respawn. *)
