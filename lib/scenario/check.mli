(** The from-scratch oracle, percentiles, and the failure tally every
    gate reports through. *)

val top_k :
  Topk_interval.Interval.t list -> float -> k:int -> Topk_interval.Interval.t list
(** [top_k elems q ~k]: the [k] heaviest of [elems] stabbed by [q],
    heaviest first. *)

val ids : Topk_interval.Interval.t list -> int list

val sorted_ids : Topk_interval.Interval.t list -> int list

val percentile : float -> float list -> float
(** [percentile p xs]: the [ceil (p·n)]-th smallest of [xs] (exact
    sort; [xs] non-empty). *)

(** Counts failures and prints the first few, one indented line each. *)
module Tally : sig
  type t

  val create : show:int -> t

  val flag : t -> string -> unit

  val count : t -> int
end
