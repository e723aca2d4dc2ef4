(** Synthetic workload generators.

    The paper evaluates nothing empirically, so every experiment in this
    repository runs on synthetic inputs drawn here.  Weights are always
    pairwise distinct (Section 1.1's standard assumption), implemented
    by assigning a random permutation of [1..n] with sub-unit jitter. *)

type weight_dist =
  | Uniform_weights            (** weight independent of geometry *)
  | Correlated of float
      (** weight = mix of a spatial coordinate and noise; the argument
          in [0,1] is the correlation strength.  Adversarial for
          sampling-based reductions: heavy elements cluster. *)

val distinct_weights : Rng.t -> int -> float array
(** [distinct_weights rng n] is [n] pairwise-distinct positive weights
    in random order. *)

val mix_weights : Rng.t -> weight_dist -> coords:float array -> float array
(** Weights for elements whose "position" is [coords.(i)], honoring the
    requested correlation; always pairwise distinct. *)

type interval_shape =
  | Short_intervals   (** lengths ~ 1/n: stabbing sets are small *)
  | Mixed_intervals   (** lengths power-law: realistic mix *)
  | Nested_intervals  (** intervals nest around the center: worst-case
                          stabbing sets of size Θ(n) at the center *)

val intervals :
  Rng.t -> shape:interval_shape -> n:int -> (float * float) array
(** [n] sub-intervals of [0,1], as [(lo, hi)] with [lo <= hi]. *)

val rectangles : Rng.t -> n:int -> (float * float * float * float) array
(** [n] axis-parallel rectangles [(x1, x2, y1, y2)] in the unit square,
    with power-law side lengths. *)

val points : Rng.t -> n:int -> d:int -> float array array
(** [n] points uniform in the unit cube of dimension [d]. *)

val stab_queries : Rng.t -> n:int -> float array
(** Stabbing coordinates, uniform in (0,1). *)

val halfplanes : Rng.t -> n:int -> (float * float * float) array
(** [(a, b, c)] constraints [a*x + b*y >= c] whose boundary lines cross
    the unit square, with unit normal [(a, b)]. *)

val balls : Rng.t -> n:int -> d:int -> (float array * float) array
(** [(center, radius)] pairs with centers in the unit cube and radii
    power-law in (0, 1/2]. *)

val zipf : distinct:int -> theta:float -> Rng.t -> int
(** [zipf ~distinct ~theta] is a sampler of ranks in [[0, distinct)]
    with [P(r)] proportional to [1/(r+1)^theta]; apply it to an [Rng.t]
    for one draw (one {!Rng.uniform} each).  The cumulative table is
    built once, at partial application. *)
