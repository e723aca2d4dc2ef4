(* E21 (extension): QoS lanes — interactive tail latency vs background
   pressure, isolated scheduler vs the single-queue baseline.

   lib/service/sched splits the executor's one FIFO into three lanes
   (interactive / batch / maintenance) under weighted-fair dispatch
   with aging.  Two claims:

   - as the merge rate grows (more updates per round force more
     background level merges onto the batch lane), the single queue
     makes interactive queries wait behind whatever batch work is
     queued ahead of them, while the lane scheduler lets them bypass
     it — a modest effect here, bounded by the few-ms duration of a
     real level merge, since neither policy preempts the job already
     on the worker;
   - under a synthetic batch storm (fixed-length busy tasks flooding
     the batch lane) the effect is starker — the unified p99 tracks
     the storm length, the isolated p99 does not — and maintenance
     heartbeats still run within the aging bound instead of starving
     behind the storm.

   Latencies are wall-clock (submit to completion, measured serially
   so a query's latency is queueing + execution, not the round's
   makespan); both runs of a configuration replay the identical
   seeded schedule. *)

module Sched_pass = Topk_scenario.Sched_pass
module Check = Topk_scenario.Check

(* Both passes of one configuration over the identical seeded schedule
   (see {!Sched_pass}): per round, apply the insert-only updates, flood
   the batch lane, keep the maintenance heartbeat alive, then issue the
   Zipf query stream serially.  One worker: the single "server core"
   model — background work that reaches the worker steals it outright,
   so what's measured is purely which queued job the scheduler hands
   over next.  Returns the unified pass's merge count and the cells
   both tables share: p50/p99 in ms per policy, the p99 gain and the
   maintenance lane's max dispatch-round wait under lanes. *)
let compare_passes ~n ~rounds ~qpr ~upr ~storm ~storm_ms ~seed =
  let pass unified =
    let r =
      Topk_em.Config.with_model Workloads.em_model (fun () ->
          Sched_pass.run ~unified ~n ~k:10 ~seed ~rounds ~qpr ~upr ~storm
            ~storm_ms ~distinct:16 ~theta:1.2 ~workers:1 ~buffer_cap:128
            ~fanout:4 ~insert_ratio:1.0)
    in
    if r.Sched_pass.mismatched > 0 then
      failwith
        (Printf.sprintf "e21: %d %s-pass answers disagree with the oracle"
           r.Sched_pass.mismatched r.Sched_pass.label);
    ( Check.percentile 0.99 r.Sched_pass.latencies *. 1e3,
      Check.percentile 0.50 r.Sched_pass.latencies *. 1e3,
      r )
  in
  let p99u, p50u, u = pass true in
  let p99l, p50l, l = pass false in
  ( u.Sched_pass.merges,
    [ Table.ff ~d:2 p50u;
      Table.ff ~d:2 p99u;
      Table.ff ~d:2 p50l;
      Table.ff ~d:2 p99l;
      Table.fx ~d:2 (p99u /. Float.max 1e-9 p99l);
      Table.fi l.Sched_pass.maint_wait ] )

let run () =
  Table.section
    "E21: QoS lanes (interactive p99 vs background pressure, isolated vs \
     single queue)";
  let rounds = if !Workloads.quick then 8 else 20 in
  let qpr = 10 in
  let n = if !Workloads.quick then 1500 else 3000 in

  (* Interactive p99 vs merge rate: the batch work is the real level
     merges forced by the update stream, nothing synthetic. *)
  let rows =
    List.map
      (fun upr ->
        let merges, cells =
          compare_passes ~n ~rounds ~qpr ~upr ~storm:0 ~storm_ms:0.
            ~seed:(210_000 + upr)
        in
        Table.fi upr :: Table.fi merges :: cells)
      [ 0; 80; 160; 320; 640 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Interactive latency vs merge rate (n = %d, %d rounds x %d \
          queries, k = 10, batch work = real merges)"
         n rounds qpr)
    ~header:
      [ "upd/round"; "merges"; "uni p50"; "uni p99"; "iso p50"; "iso p99";
        "p99 gain"; "maint wait" ]
    rows;
  Table.note
    "Claim: as the merge rate grows the unified tail inflates (a query \
     can queue behind every merge ahead of it) while isolation holds it \
     near the single-merge floor — modestly here, because level merges \
     at this scale run a few ms each and neither policy preempts the \
     one already on the worker.  The growing p50 is query cost (more \
     runs to consult), not queueing.  E21b is the regime where batch \
     work dominates.";

  (* Interactive p99 vs storm intensity at a fixed merge rate: the
     batch lane is flooded with synthetic 3ms busy tasks. *)
  let upr = 160 in
  let rows =
    List.map
      (fun storm ->
        let _, cells =
          compare_passes ~n ~rounds ~qpr ~upr ~storm ~storm_ms:3.0
            ~seed:(211_000 + storm)
        in
        Table.fi storm :: cells)
      [ 0; 2; 4; 8; 16 ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E21b: interactive latency vs batch storm (n = %d, %d updates \
          per round, storm = 3ms busy tasks per round)"
         n upr)
    ~header:
      [ "storm"; "uni p50"; "uni p99"; "iso p50"; "iso p99"; "p99 gain";
        "maint wait" ]
    rows;
  Table.note
    "Claim: the unified p99 tracks the storm intensity while the \
     isolated p99 barely moves, and the maintenance heartbeat still \
     runs within aging_rounds + lane count dispatch decisions."
