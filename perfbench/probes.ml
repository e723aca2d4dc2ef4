(* Per-layer measurements for the traced run: each layer's public
   functions, timed from outside on the workload's own base elements
   and op stream, plus the layers' public counters.  Every layer is
   measured on every workload, so each workload reports the same
   metric set; on a workload whose path skips a layer, the number is
   what that layer would cost there. *)

module I = Topk_interval.Interval
module T2 = Stack.T2
module SSet = Topk_shard.Shard_set.Make (T2) (Topk_interval.Slab_max)
module Scatter = Topk_shard.Scatter.Make (SSet) (T2)
module G = Topk_repl.Group.Make (T2)
module Svc = Topk_service
module M = Svc.Metrics
module Stats = Topk_em.Stats
module W = Workload

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type span = { s_name : string; s_start : float; s_end : float }

type sizes = { nq : int; nq_slow : int; nw : int }

let params () = Topk_interval.Instances.params ()

(* The scatter probe's hash shards and the replication probe's group:
   2 replicas, default quorum, a seeded lossy transport. *)
let shards = 4
let replicas = 2

let p50 xs = Pct.median xs
let p99 xs = Pct.percentile xs ~p:99.

let timed_each xs f = Array.map (fun x -> snd (Clock.time_us (fun () -> f x))) xs

let count_queries ops =
  Array.to_list ops
  |> List.filter_map (function W.Query q -> Some q | _ -> None)
  |> Array.of_list

let writes_of ops =
  Array.of_list
    (List.filter (function W.Query _ -> false | _ -> true) (Array.to_list ops))

let run (st : Stack.t) ~seed ~(sizes : sizes) ~record =
  let spec = st.Stack.spec and base = st.Stack.base in
  let k = spec.W.k in
  let phase name f =
    let t0 = Clock.now_us () in
    let r = f () in
    record { s_name = name; s_start = t0; s_end = Clock.now_us () };
    r
  in
  let queries =
    let ops = W.ops { spec with W.write_frac = 0. } ~seed ~base ~count:sizes.nq in
    count_queries ops
  in
  let fresh =
    let next = W.query_source ~draws:7 ~seed in
    Array.init (4 * sizes.nq) (fun _ -> next ())
  in
  let writes =
    writes_of
      (W.ops
         { spec with W.write_frac = 1.; insert_frac = 0.7 }
         ~seed ~base ~count:sizes.nw)
  in
  (* core + em: the raw Theorem 2 structure. *)
  let core =
    phase "probe.core" (fun () ->
        let t2, build_us = Clock.time_us (fun () -> T2.build ~params:(params ()) base) in
        let r0 = T2.rounds_run t2 and f0 = T2.rounds_failed t2 in
        let w0 = Gc.minor_words () in
        let cost = ref Stats.zero_snapshot in
        let lat =
          timed_each queries (fun q ->
              let _, c = Stats.measure (fun () -> T2.query t2 q ~k) in
              cost := Stats.add !cost c)
        in
        let words = Gc.minor_words () -. w0 in
        let nq = float_of_int (Array.length queries) in
        let rounds = T2.rounds_run t2 - r0 and failed = T2.rounds_failed t2 - f0 in
        ( t2,
          [
            m "core.t2_query_us" "us" (p50 lat);
            m "core.t2_query_minor_words" "words" (words /. nq);
            m "core.t2_rounds_per_query" "rounds" (float_of_int rounds /. nq);
            m "core.t2_failed_round_ratio" "ratio"
              (float_of_int failed /. float_of_int (max 1 rounds));
            m "core.t2_build_s" "s" (build_us /. 1e6);
            m "em.ios_per_query" "I/O" (float_of_int !cost.Stats.ios /. nq);
            m "em.scanned_per_query" "elems" (float_of_int !cost.Stats.scanned /. nq);
          ] ))
  in
  let t2, core_metrics = core in
  (* service: raw vs Client.direct (cache on, all misses) vs
     Client.direct (cache off) vs serial Client.pooled (cache off), on
     fresh uniform points. *)
  let service_metrics =
    phase "probe.service" (fun () ->
        let h = Svc.Registry.register st.Stack.registry ~name:"probe.t2" (module T2) t2 in
        let cached = Svc.Client.create () and plain = Svc.Client.create ~cache:false () in
        let d_miss = Svc.Client.attach cached (Svc.Client.direct h) in
        let d_off = Svc.Client.attach plain (Svc.Client.direct h) in
        let p_off = Svc.Client.attach plain (Svc.Client.pooled st.Stack.pool h) in
        (* The four paths take turns, each on its own points, so drift in
           the machine's speed hits all four alike. *)
        let paths =
          [|
            (fun q -> ignore (T2.query t2 q ~k));
            (fun q -> ignore (Svc.Client.query_sync d_miss q ~k));
            (fun q -> ignore (Svc.Client.query_sync d_off q ~k));
            (fun q -> ignore (Svc.Client.query_sync p_off q ~k));
          |]
        in
        let lat = Array.map (fun _ -> Array.make sizes.nq 0.) paths in
        for i = 0 to sizes.nq - 1 do
          Array.iteri
            (fun j run ->
              lat.(j).(i) <- snd (Clock.time_us (fun () -> run fresh.((j * sizes.nq) + i))))
            paths
        done;
        let raw = lat.(0) and miss = lat.(1) and direct = lat.(2) and pooled = lat.(3) in
        let hits =
          timed_each (Array.sub fresh sizes.nq sizes.nq) (fun q ->
              Svc.Client.query_sync d_miss q ~k)
        in
        let hs = Option.get (Svc.Client.cache_stats cached) in
        if hs.Topk_cache.Cache.st_hits = 0 then failwith "cache probe never hit";
        [
          m "client.direct_overhead_us" "us" (p50 miss -. p50 raw);
          m "executor.handoff_us" "us" (p50 pooled -. p50 direct);
          m "cache.hit_us" "us" (p50 hits);
        ])
  in
  (* shard: uncached Scatter.query over S hash shards of the base. *)
  let scatter_metrics =
    phase "probe.scatter" (fun () ->
        let set =
          SSet.of_elems ~params:(params ())
            ~strategy:(Topk_shard.Partitioner.Hash (fun (e : I.t) -> e.I.id))
            ~shards base
        in
        let sc = Scatter.create st.Stack.pool st.Stack.registry ~name:"probe.shard" set in
        let fanout = ref 0 and pruned = ref 0 in
        let lat =
          timed_each queries (fun q ->
              let r = Scatter.query sc q ~k in
              fanout := !fanout + r.Scatter.fanout;
              pruned := !pruned + r.Scatter.pruned)
        in
        let nq = float_of_int (Array.length queries) in
        let shards = float_of_int (SSet.shard_count set) in
        [
          m "scatter.query_us" "us" (p50 lat);
          m "scatter.fanout_mean" "legs" (float_of_int !fanout /. nq);
          m "scatter.pruned_ratio" "ratio" (float_of_int !pruned /. (nq *. shards));
        ])
  in
  (* ingest / durable: the same write stream on a Volatile and on an
     Async 64 store, merges on the pool's Batch lane. *)
  let store_run ?(before = fun _ -> ()) mode ~dir =
    (* A run killed before its clean-up may have left the directory. *)
    Stack.remove_tree dir;
    let metrics = M.create () in
    let store =
      Stack.DS.create ~params:(params ()) ~buffer_cap:256 ~pool:st.Stack.pool ~metrics
        ~mode ~dir base
    in
    let idx = Stack.DS.index store in
    before idx;
    let runs = ref 0 in
    let lat =
      timed_each writes (fun op ->
          (match op with
          | W.Insert e -> Stack.DS.insert store e
          | W.Delete e -> Stack.DS.delete store e
          | W.Query _ -> ());
          runs := !runs + Stack.DS.I.run_count idx)
    in
    (store, metrics, lat, !runs)
  in
  let kops = float_of_int (Array.length writes) /. 1000. in
  let ingest_metrics, volatile_p50 =
    phase "probe.ingest" (fun () ->
        let dir = Filename.concat st.Stack.out_dir "probe-volatile" in
        (* Queries first, on the bare base run: next to core.t2_query_us. *)
        let qlat = ref [||] in
        let before idx =
          qlat := timed_each (Array.sub fresh 0 sizes.nq_slow) (fun q -> Stack.DS.I.query idx q ~k)
        in
        let store, metrics, lat, runs = store_run ~before Topk_durable.Store.Volatile ~dir in
        Stack.DS.close store;
        Svc.Executor.drain st.Stack.pool;
        let qlat = !qlat in
        Stack.remove_tree dir;
        let merges = M.Counter.get metrics.M.merges in
        let mh = metrics.M.merge_latency_us in
        ( [
            m "ingest.query_us" "us" (p50 qlat);
            m "ingest.insert_p50_us" "us" (p50 lat);
            m "ingest.insert_p99_us" "us" (p99 lat);
            m "ingest.runs_mean" "runs"
              (float_of_int runs /. float_of_int (Array.length writes));
            m "ingest.merges_per_kop" "merges/kop" (float_of_int merges /. kops);
            m "ingest.merge_ms_mean" "ms"
              (if M.Histogram.count mh = 0 then 0.
               else float_of_int (M.Histogram.sum mh) /. float_of_int (M.Histogram.count mh) /. 1e3);
          ],
          p50 lat ))
  in
  let durable_metrics =
    phase "probe.durable" (fun () ->
        let dir = Filename.concat st.Stack.out_dir "probe-durable" in
        let store, metrics, lat, _ = store_run (Topk_durable.Store.Async 64) ~dir in
        let live = Stack.DS.I.size (Stack.DS.index store) in
        Stack.DS.close store;
        (* The checkpoints' GC sweeps run on the pool: none may still be
           deleting files while the directory is read or removed. *)
        Svc.Executor.drain st.Stack.pool;
        let bytes = Stack.dir_bytes dir in
        let recovered, rec_us =
          Clock.time_us (fun () ->
              Stack.DS.recover ~params:(params ()) ~buffer_cap:256 ~pool:st.Stack.pool
                ~mode:(Topk_durable.Store.Async 64) ~dir ())
        in
        (match recovered with
        | Some r ->
            let n = Stack.DS.I.size (Stack.DS.index r) in
            Stack.DS.close r;
            Svc.Executor.drain st.Stack.pool;
            if n <> live then
              failwith (Printf.sprintf "recovery restored %d of %d live elements" n live)
        | None -> failwith "recovery found no valid root");
        Stack.remove_tree dir;
        let wal_bytes =
          Array.fold_left
            (fun (acc, seq) op ->
              let op =
                match op with
                | W.Insert e -> Topk_ingest.Update_log.Insert e
                | W.Delete e -> Topk_ingest.Update_log.Delete e
                | W.Query _ -> invalid_arg "query in a write stream"
              in
              (* A WAL frame: 8 header bytes plus the record payload. *)
              let payload =
                Topk_durable.Wal.entry_payload { Topk_ingest.Update_log.seq; op }
              in
              (acc + 8 + Bytes.length payload, seq + 1))
            (0, 1) writes
          |> fst
        in
        [
          m "durable.append_overhead_us" "us" (p50 lat -. volatile_p50);
          m "durable.fsyncs_per_kop" "fsyncs/kop"
            (float_of_int (M.Counter.get metrics.M.wal_fsyncs) /. kops);
          m "durable.checkpoints_per_kop" "ckpts/kop"
            (float_of_int (M.Counter.get metrics.M.checkpoints) /. kops);
          m "durable.wal_bytes_per_update" "B"
            (float_of_int wal_bytes /. float_of_int (Array.length writes));
          m "durable.recover_s" "s" (rec_us /. 1e6);
          m "durable.disk_bytes_per_elem" "B" (float_of_int bytes /. float_of_int live);
        ])
  in
  let repl_metrics =
    phase "probe.repl" (fun () ->
        let metrics = M.create () in
        let g =
          G.create ~params:(params ())
            ~plan:(Topk_repl.Transport.plan ~drop:0.05 ~delay_max:1 ~seed ())
            ~metrics ~name:"probe.group" ~replicas base
        in
        let lags = Array.make (Array.length writes) 0. in
        let i = ref 0 in
        let lat =
          timed_each writes (fun op ->
              ignore
                (match op with
                | W.Insert e -> G.insert g e
                | W.Delete e -> G.delete g e
                | W.Query _ -> assert false);
              lags.(!i) <- float_of_int (G.lag g);
              incr i)
        in
        let levels =
          [| Svc.Consistency.Any; Svc.Consistency.At_least (G.head g); Svc.Consistency.Max_lag 3 |]
        in
        let j = ref 0 in
        let reads =
          timed_each (Array.sub fresh 0 sizes.nq_slow) (fun q ->
              incr j;
              match G.read ~consistency:levels.(!j mod 3) g q ~k with
              | Some _ -> ()
              | None -> failwith "replicated read refused")
        in
        let tr = G.transport g in
        let sent = ref 0 in
        for src = 0 to G.nodes g - 1 do
          for dst = 0 to G.nodes g - 1 do
            if src <> dst then
              sent := !sent + (Topk_repl.Transport.stats tr ~src ~dst).Topk_repl.Transport.sent
          done
        done;
        let nw = float_of_int (Array.length writes) in
        [
          m "repl.insert_p50_us" "us" (p50 lat);
          m "repl.insert_p99_us" "us" (p99 lat);
          m "repl.frames_per_write" "frames"
            (float_of_int (M.Counter.get metrics.M.repl_frames_shipped) /. nw);
          m "repl.drop_ratio" "ratio"
            (float_of_int (Topk_repl.Transport.total_dropped tr) /. float_of_int (max 1 !sent));
          m "repl.read_us" "us" (p50 reads);
          m "repl.lag_p99" "seqs" (p99 lags);
        ])
  in
  core_metrics @ service_metrics @ scatter_metrics @ ingest_metrics @ durable_metrics
  @ repl_metrics
