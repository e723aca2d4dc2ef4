(** Monotonic time in microseconds, from [bechamel.monotonic_clock].
    Nothing in the benchmark reads the wall clock. *)

val now_us : unit -> float

val since_us : float -> float
(** [since_us t0] is [now_us () -. t0]. *)

val sleep_until_us : float -> unit
(** Block until [now_us ()] reaches the given instant: sleep until
    250us before it, then spin.  Returns at once if it has passed. *)

val time_us : (unit -> 'a) -> 'a * float
(** Run a thunk; its result and elapsed microseconds. *)
