(* E17 (extension): sharded scatter-gather planner — max-query shard
   pruning on top of the paper's reductions.

   Each shard is an independent Theorem-2 structure over n/S elements
   plus an exact max structure (Slab_max).  The planner pays one cheap
   max query per shard, then visits shards in decreasing upper-bound
   order until the next bound cannot beat the running k-th candidate.
   Columns compare a flat (unsharded) index, the visit-every-shard
   merge, and the pruning planner, under a weight-range partitioning
   (the skew that makes bounds informative). *)

module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module Inst = Topk_interval.Instances
module SS =
  Topk_shard.Shard_set.Make (Inst.Topk_t2) (Topk_interval.Slab_max)
module Planner = Topk_shard.Planner.Make (SS)
module Partitioner = Topk_shard.Partitioner
module P = Topk_interval.Problem

let run () =
  Table.section "E17: sharded planner with max-query pruning";
  let n = if !Workloads.quick then 16_384 else 65_536 in
  let k = 100 in
  let elems = Workloads.intervals ~seed:170_001 ~shape:Gen.Mixed_intervals ~n in
  let queries = Gen.stab_queries (Rng.create 170_002) ~n:40 in
  let params = Inst.params () in
  let flat =
    Topk_em.Config.with_model Workloads.em_model (fun () ->
        Inst.Topk_t2.build ~params elems)
  in
  let q_flat =
    Workloads.per_query_ios
      (fun q -> ignore (Inst.Topk_t2.query flat q ~k))
      queries
  in
  let rows = ref [] in
  List.iter
    (fun shards ->
      let t =
        Topk_em.Config.with_model Workloads.em_model (fun () ->
            SS.of_elems ~params
              ~strategy:(Partitioner.Range P.weight)
              ~shards elems)
      in
      let q_all =
        Workloads.per_query_ios
          (fun q -> ignore (Planner.query_all t q ~k))
          queries
      in
      let visited = ref 0 and pruned = ref 0 in
      let q_plan =
        Workloads.per_query_ios
          (fun q ->
            let _, r = Planner.query_report t q ~k in
            visited := !visited + r.Planner.visited;
            pruned := !pruned + r.Planner.pruned)
          queries
      in
      let nq = float_of_int (Array.length queries) in
      rows :=
        [ Table.fi shards;
          Table.ff ~d:1 q_flat;
          Table.ff ~d:1 q_all;
          Table.ff ~d:1 q_plan;
          Table.ff ~d:1 (float_of_int !visited /. nq);
          Table.ff ~d:1 (float_of_int !pruned /. nq) ]
        :: !rows)
    [ 1; 2; 4; 8; 16 ];
  Table.print
    ~title:
      (Printf.sprintf
         "Average I/Os per top-%d query, n=%d, weight-range shards" k n)
    ~header:[ "S"; "flat"; "visit-all"; "planner"; "visited/q"; "pruned/q" ]
    (List.rev !rows);
  Table.note
    "Sharding is not free in raw I/Os: S independent legs re-pay the \
     per-query base cost, so visit-all grows with S and the flat index \
     stays cheapest (sharding buys parallel workers and incremental \
     rebuilds instead).  Pruning claws most of the overhead back while \
     Q_top(n/S) >> Q_max(n/S); once shards shrink until a top-k leg \
     costs no more than a max query, the bounds stop paying for \
     themselves — the regime analysis of DESIGN.md section 9."
