(** A replicated group under an oracle-checked workload: the writes it
    issues, the surviving timeline (truncated on failover), and checked
    reads.  Every law violation goes to the [fail] callback given at
    {!create}. *)

module G : module type of Topk_repl.Group.Make (Topk_interval.Instances.Topk_t2)

type t

val create : G.t -> base:Topk_interval.Interval.t array -> fail:(string -> unit) -> t
(** [base] is what [G.create] was given, with ids [1..n]. *)

val last_synced : t -> int
(** The newest quorum-acked write still on the timeline ([0] if none). *)

val write : t -> Topk_util.Rng.t -> insert_ratio:float -> unit
(** One write: an insert of a fresh {!Ops.Short} element with distinct
    weight with probability [insert_ratio] (always while nothing is
    deletable), else the delete of a uniformly chosen live inserted
    element.  Checks the write's seq against the timeline. *)

val failover : t -> bool
(** Fail the primary.  On success, checks that no synced write was
    lost, truncates the timeline to the promoted head and returns
    [true]; a refused failover is a violation and returns [false]. *)

val read :
  t -> consistency:Topk_service.Consistency.t -> floor:int -> float -> k:int ->
  Topk_interval.Interval.t Topk_service.Response.t option
(** A read checked for completeness, a seq token inside the surviving
    timeline and at least [floor], and an answer equal to the
    from-scratch oracle at that token.  [Some] once the answer was
    compared, [None] when a check before the comparison failed. *)

val converge : t -> max_ticks:int -> bool
(** Settle the group, then require every live node's surviving set to
    equal the oracle at the timeline's head.  [false] (and a violation)
    when the group did not settle. *)
