(** Shared workload builders and measurement helpers for the
    experiment harness. *)

val em_model : Topk_em.Config.t
(** The cost model all experiments run under: EM with [B = 64] (the
    paper's minimum block size). *)

val quick : bool ref
(** Set by [--quick]: experiments shrink their sweeps. *)

val sizes : int list -> int list
(** Identity, or the two extremes under [--quick]. *)

val trials : int -> int
(** Identity, or a tenth under [--quick]. *)

val intervals :
  seed:int -> shape:Topk_util.Gen.interval_shape -> n:int ->
  Topk_interval.Interval.t array

val stab_queries : seed:int -> n:int -> float array

val elem : Topk_util.Rng.t -> int -> Topk_interval.Interval.t
(** The element the update experiments (E8, E19, E20) stream: a
    {!Topk_scenario.Ops.Wide} interval weighted [id + 0.4u]. *)

val avg_ios : (unit -> unit) -> runs:int -> float
(** Average I/Os per invocation under {!em_model}. *)

val per_query_ios : ('a -> unit) -> 'a array -> float
(** Average I/Os per element of the query batch under {!em_model}. *)

val measured_q_pri_interval : Topk_interval.Seg_stab.t -> queries:float array -> float
(** Empirical [Q_pri(n)]: average I/Os of a prioritized query whose
    threshold is above every weight (pure navigation, [t = 0]). *)

val measured_q_max_interval : Topk_interval.Slab_max.t -> queries:float array -> float

val calibrate :
  Topk_core.Params.t -> q_pri:float -> q_max:float -> ?scale:float -> unit ->
  Topk_core.Params.t
(** Replace the asymptotic cost estimates with measured constants (what
    a practitioner tuning the structure would do) and optionally apply
    the [coreset_scale] ablation knob from DESIGN.md section 6. *)
