(** Seeded interval elements and the live-set update stream. *)

type span =
  | Short  (** [[lo, min 1 (lo + 0.02 + 0.3u)]] *)
  | Wide  (** [[lo, lo + u(1 - lo)]] *)

type weight =
  | Distinct of float
      (** [id + c·u], [c < 1]: strictly increasing in the id, so every
          top-k is unique and answers compare by id. *)
  | Scaled of float  (** [c·u] *)

val interval :
  span:span -> weight:weight -> Topk_util.Rng.t -> int -> Topk_interval.Interval.t
(** [interval ~span ~weight rng id] draws [lo], the span, then the
    weight — three uniforms, in that order. *)

val mixed : Topk_util.Rng.t -> n:int -> Topk_interval.Interval.t array
(** [n] power-law intervals ({!Topk_util.Gen.Mixed_intervals}) with
    distinct weights and ids [1..n]. *)

type op = Insert of Topk_interval.Interval.t | Delete of Topk_interval.Interval.t

(** Inserts fresh ids and deletes live ones.  Each step draws one
    uniform: at most [insert_ratio] it inserts a {!Short} element with
    the next id; otherwise it probes up to 64 random ids for a live
    victim and falls back to an insert when every probe misses. *)
module Stream : sig
  type t

  val create :
    insert_ratio:float -> weight:weight -> Topk_util.Rng.t ->
    Topk_interval.Interval.t array -> t
  (** Over a base with ids [1..n]; fresh ids start at [n + 1]. *)

  val next : t -> op

  val live : t -> (int, Topk_interval.Interval.t) Hashtbl.t
  (** The surviving set after every op emitted so far, by id. *)
end
