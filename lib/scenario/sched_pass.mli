(** One pass of the QoS-lane scenario: a Zipf-skewed interactive query
    stream races a live-ingesting index under a batch-lane storm and a
    maintenance heartbeat.  Per round it applies [upr] updates, submits
    [storm] busy tasks of [storm_ms] each to the batch lane and one
    maintenance task, then issues [qpr] queries one at a time, so a
    query's latency is its queueing plus its own execution.  Every
    answer is checked against the from-scratch oracle over the round's
    surviving set.  Both passes of a comparison replay the identical
    seeded schedule. *)

type result = {
  label : string;  (** ["unified"] or ["lanes"] *)
  mismatched : int;  (** answers off the oracle, or not complete *)
  latencies : float list;  (** seconds, one per query *)
  merges : int;
  maint_done : int;  (** maintenance tasks that completed *)
  maint_wait : int;  (** the maintenance lane's max wait, in dispatch rounds *)
  lane_ios : int list;  (** charged I/O per lane *)
  pool_ios : int;  (** the pool's aggregate charged I/O *)
}

val run :
  unified:bool ->
  n:int ->
  k:int ->
  seed:int ->
  rounds:int ->
  qpr:int ->
  upr:int ->
  storm:int ->
  storm_ms:float ->
  distinct:int ->
  theta:float ->
  workers:int ->
  buffer_cap:int ->
  fanout:int ->
  insert_ratio:float ->
  result
(** [unified] runs the single-queue baseline
    ({!Topk_service.Sched.unified_config}), otherwise the lane
    scheduler's default config.  The pool dequeues one job at a time,
    so every dequeue is a scheduling decision.  Updates come from an
    {!Ops.Stream} with [insert_ratio] over [n] distinct-weight base
    elements; queries draw from [distinct] points with
    {!Topk_util.Gen.zipf} skew [theta]. *)
