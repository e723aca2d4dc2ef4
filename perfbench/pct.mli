(** Exact sort-based percentiles (nearest rank), the only percentile
    the benchmark reports.  No bucketing: the p99 of 1,000 samples is
    the 990th smallest sample itself. *)

val rank : p:float -> int -> int
(** [rank ~p n] is the 1-based nearest rank [ceil (p n / 100)],
    clamped to [[1, n]].
    @raise Invalid_argument if [n = 0] or [p] is outside (0, 100]. *)

val sorted : float array -> float array
(** A sorted copy. *)

val of_sorted : float array -> p:float -> float
(** Percentile of an already-sorted array. *)

val percentile : float array -> p:float -> float

val median : float array -> float
(** [percentile ~p:50.]: for an odd count, the middle sample. *)
