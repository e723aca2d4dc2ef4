(** Deterministic, splittable pseudo-random generator (splitmix64).

    Every randomized component of the library (rank sampling, core-set
    construction, quickselect pivots, workload generators) draws from an
    explicit [Rng.t], so experiments are reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] is a generator determined entirely by [seed]. *)

val split : t -> t
(** A statistically independent generator derived from [t]'s stream;
    both remain usable. *)

val copy : t -> t

val bits64 : t -> int64
(** Next 64 uniform bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); requires [bound > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val uniform : t -> float
(** Uniform in [0, 1). *)

val exponential : t -> float
(** Standard exponential variate. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> p:float -> 'a array -> 'a array
(** [sample t ~p arr] keeps each element independently with probability
    [p] — the p-sample of Section 3.1 — in increasing index order.  It
    skips geometrically distributed gaps rather than flipping a coin
    per element, so it makes [O(pn + 1)] draws on [n] elements; for
    the same seed it therefore keeps different elements than the
    earlier one-draw-per-element version did.  [p >= 1] copies the
    array and [p <= 0] keeps nothing, both without drawing; a NaN [p]
    keeps nothing, and a tiny positive one usually stops after one
    draw, when the first gap already passes the end of the array. *)

val mix64 : int64 -> int64
(** The splitmix64 finalizer applied to [x + golden]: a stateless
    64-bit mixer (what {!Topk_shard.Partitioner} hashes ids with). *)

(** The {e raw-seed} splitmix64 stream: the state starts at the given
    word itself rather than at [mix seed].  This is the stream the
    fault-injection layers ({!Topk_em.Fault}, {!Topk_durable.Disk},
    {!Topk_repl.Transport}) draw from; it is exposed separately so
    their historical seeded schedules stay bit-identical. *)
module Raw : sig
  type t

  val create : int64 -> t

  val reseed : t -> int64 -> unit
  (** Restart the stream at a new raw state. *)

  val next : t -> int64
  (** Next 64 bits: [state <- state + golden; mix state]. *)

  val uniform : t -> float
  (** Top 53 bits of {!next} into [0,1). *)

  val below_incl : t -> int -> int
  (** Uniform-ish draw in [0, n] ([0] when [n <= 0]); the historical
      modulo draw, kept for schedule compatibility. *)
end
