(** The issued op history over a base set: the oracle's view of what
    should survive at each sequence number.  Op [s] (1-based) is the
    [s]-th op pushed; a failover truncates the tail. *)

type t

val create : Topk_interval.Interval.t array -> t

val push : t -> Ops.op -> unit

val length : t -> int

val truncate_to : t -> int -> unit
(** Drop every op after sequence [h]. *)

val live_at : t -> int -> (int, Topk_interval.Interval.t) Hashtbl.t
(** A fresh replay of the base plus the first [r] ops, by id. *)

val ids_at : t -> int -> int list
(** The ids of {!live_at}, sorted. *)
