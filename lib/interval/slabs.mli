(** Elementary slabs of a coordinate set (shared by the stabbing
    structures).

    The [m] distinct endpoint coordinates split the line into [2m + 1]
    elementary slabs, alternating open gaps and single-coordinate
    points: slab [2i] is the open gap before coordinate [i], slab
    [2i + 1] is coordinate [i] itself.  A closed interval whose
    endpoints are coordinates [i <= j] covers exactly slabs
    [2i+1 .. 2j+1]; locating a stabbing point is a predecessor
    search. *)

type t

val of_endpoints : float array -> t
(** Build from any coordinate multiset (deduplicated internally): the
    coordinates are ordered as by [Float.compare], with a monomorphic
    merge sort that boxes no float. *)

val slab_count : t -> int

val coord_count : t -> int

val slab_of_point : t -> float -> int
(** Slab containing an arbitrary real; O(log m), charged as a
    predecessor search. *)

val slab_of_coord : t -> float -> int
(** Slab of a value known to be one of the coordinates.
    @raise Invalid_argument otherwise. *)

val space_words : t -> int

(** {1 Segment trees over the slabs}

    The stabbing structures ({!Seg_stab}, {!Stab_count}, {!Dyn_max}
    and the enclosure x-tree) share one complete binary tree over the
    slabs: nodes are numbered 1-based in heap order (node [i]'s
    children are [2i] and [2i + 1]), the leaf of slab [s] is node
    [leaves t + s], and a node covers a contiguous slab range. *)

val leaves : t -> int
(** The smallest power of two [>= slab_count t]. *)

val iter_canonical : leaves:int -> int -> int -> (int -> unit) -> unit
(** [iter_canonical ~leaves l r f] applies [f] to the canonical nodes
    of the inclusive slab range [[l, r]] — the [O(log leaves)] maximal
    nodes whose ranges lie inside it — in pre-order, left to right. *)
