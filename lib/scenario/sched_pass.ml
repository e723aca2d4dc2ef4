module Rng = Topk_util.Rng
module Inst = Topk_interval.Instances
module Ing = Topk_ingest.Ingest.Make (Inst.Topk_t2)
module Svc = Topk_service
module Lane = Topk_service.Lane

type result = {
  label : string;
  mismatched : int;
  latencies : float list;
  merges : int;
  maint_done : int;
  maint_wait : int;
  lane_ios : int list;
  pool_ios : int;
}

let run ~unified ~n ~k ~seed ~rounds ~qpr ~upr ~storm ~storm_ms ~distinct ~theta
    ~workers ~buffer_cap ~fanout ~insert_ratio =
  let label = if unified then "unified" else "lanes" in
  let lanes =
    if unified then Svc.Sched.unified_config () else Svc.Sched.default_config ()
  in
  (* batch_max 1: a bigger batch would let one worker swallow the
     whole storm in a single grant. *)
  let pool = Svc.Executor.create ~workers ~batch_max:1 ~lanes () in
  let m = Svc.Executor.metrics pool in
  let qpool =
    let qrng = Rng.create (seed lxor 0x51f3) in
    Array.init distinct (fun _ -> Rng.uniform qrng)
  in
  let zipf = Topk_util.Gen.zipf ~distinct ~theta in
  let rng = Rng.create seed in
  let base =
    Array.init n (fun i -> Ops.interval ~span:Short ~weight:(Distinct 0.5) rng (i + 1))
  in
  let t = Ing.create ~params:(Inst.params ()) ~buffer_cap ~fanout ~pool base in
  let stream = Ops.Stream.create ~insert_ratio ~weight:(Distinct 0.5) rng base in
  (* The surviving set only changes between query bursts (merges
     restructure runs, never the answer), so oracle answers are
     memoized per round. *)
  let oracle_memo = Array.make distinct None in
  let oracle qi =
    match oracle_memo.(qi) with
    | Some ans -> ans
    | None ->
        let lives = Hashtbl.fold (fun _ e a -> e :: a) (Ops.Stream.live stream) [] in
        let ans = Check.ids (Check.top_k lives qpool.(qi) ~k) in
        oracle_memo.(qi) <- Some ans;
        ans
  in
  let submit ?lane name f = Svc.Executor.submit_task pool ?lane ~name f in
  (* Warm the pool (domain spawn is ms-scale) so startup doesn't land
     on the first measured queries. *)
  ignore
    (Svc.Future.await (submit ~lane:Lane.Interactive "warmup" ignore)
      : unit Svc.Response.t);
  let mismatches = Check.Tally.create ~show:3 in
  let latencies = ref [] and maint = ref [] in
  for _round = 1 to rounds do
    for _ = 1 to upr do
      match Ops.Stream.next stream with
      | Insert e -> Ing.insert t e
      | Delete e -> Ing.delete t e
    done;
    Array.fill oracle_memo 0 distinct None;
    for _ = 1 to storm do
      ignore
        (submit "storm" (fun () -> Clock.spin (storm_ms /. 1e3))
          : unit Svc.Response.t Svc.Future.t)
    done;
    maint := submit ~lane:Lane.Maintenance "scrub" ignore :: !maint;
    for _ = 1 to qpr do
      let qi = zipf rng in
      let slot = ref [] in
      let r =
        Svc.Future.await
          (submit ~lane:Lane.Interactive "query" (fun () -> slot := Ing.query t qpool.(qi) ~k))
      in
      let status = r.Svc.Response.status in
      if status <> Svc.Response.Complete || Check.ids !slot <> oracle qi then
        Check.Tally.flag mismatches
          (Printf.sprintf "MISMATCH (%s pass, q=%g): %s, got %d ids, oracle %d"
             label qpool.(qi) (Svc.Response.status_string status)
             (List.length !slot) (List.length (oracle qi)));
      latencies := r.Svc.Response.latency :: !latencies
    done
  done;
  Ing.freeze t;
  Svc.Executor.drain pool;
  let maint_done =
    List.length
      (List.filter
         (fun f -> (Svc.Future.await f).Svc.Response.status = Svc.Response.Complete)
         !maint)
  in
  let pool_ios = (Svc.Executor.aggregate_stats pool).Topk_em.Stats.ios in
  Svc.Executor.shutdown pool;
  let get = Svc.Metrics.Counter.get in
  {
    label;
    mismatched = Check.Tally.count mismatches;
    latencies = !latencies;
    merges = get m.Svc.Metrics.merges;
    maint_done;
    maint_wait =
      Svc.Metrics.Histogram.max_value
        m.Svc.Metrics.lane_wait_rounds.(Lane.index Lane.Maintenance);
    lane_ios = Array.to_list (Array.map get m.Svc.Metrics.lane_ios);
    pool_ios;
  }
