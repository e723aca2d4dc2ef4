(* The repository benchmark.  One run: build the workload's stack
   ([setups] times, timing each; the median is setup_s), drive a
   fixed-rate open loop and then a closed loop through it, check every
   answer, and print the metrics as the last line of stdout.  With
   --trace 1 the run instead measures each layer from outside and
   writes the spans it recorded to the output directory. *)

open Topk_perfbench
module W = Workload
module H = Harness
module Svc = Topk_service
module M = Svc.Metrics
module Cache = Topk_cache.Cache

let usage =
  "main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

(* Share of [seconds] given to each phase. *)
let open_share = 0.5
let closed_share = 0.5
let setups = 5

(* Stretches of the open loop behind query_p50_us and op_p50_us. *)
let windows = 5

(* Closed-loop requests in flight: nproc * 4 for the two domains. *)
let outstanding = 8

(* The closed loop's op budget, in ops/s: five times the ~4k ops/s
   static_uniform reaches, so a faster program still finds ops left. *)
let max_peak = 20_000.

let probe_sizes = { Probes.nq = 1000; nq_slow = 100; nw = 2000 }

let json_float v =
  if not (Float.is_finite v) then die "non-finite metric value %f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed (metrics : Probes.metric list) =
  let body =
    String.concat ", "
      (List.map
         (fun (x : Probes.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Probes.name
             (json_float x.Probes.value) x.Probes.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let lat_of samples pred =
  Array.of_list
    (List.filter_map
       (fun s -> if pred s && H.ok s then Some (H.latency s) else None)
       (Array.to_list samples))

(* The median over [windows] equal stretches of the open loop (by due
   time) of each stretch's median latency: a slowdown of a shared
   machine confined to a minority of the stretches leaves it unmoved. *)
let windowed_p50 (samples : H.sample array) pred ~windows =
  let first = samples.(0).H.due and last = samples.(Array.length samples - 1).H.due in
  let width = (last -. first) /. float_of_int windows in
  let window (s : H.sample) = min (windows - 1) (int_of_float ((s.H.due -. first) /. width)) in
  Pct.median
    (Array.of_list
       (List.filter_map
          (fun w ->
            let l = lat_of samples (fun s -> pred s && window s = w) in
            if Array.length l = 0 then None else Some (Pct.median l))
          (List.init windows Fun.id)))

let query_ios samples =
  let sum = ref 0 and n = ref 0 in
  Array.iter
    (fun (s : H.sample) ->
      match s.H.out with
      | Stack.Answer a ->
          sum := !sum + a.ios;
          incr n
      | _ -> ())
    samples;
  float_of_int !sum /. float_of_int (max 1 !n)

let failed_count samples =
  Array.fold_left (fun a s -> if H.ok s then a else a + 1) 0 samples

(* Everything from generating inputs to a warmed stack.  [count] is
   the open loop's ops only: the closed loop's, sized by [max_peak]
   rather than by the program, are generated after set-up, untimed,
   and after heap_peak_mb is read. *)
let setup spec ~seed ~out_dir ~count =
  let (base, ops, st), us =
    Clock.time_us (fun () ->
        let base = W.data spec ~seed in
        let ops = W.ops spec ~seed ~base ~count in
        let st = Stack.create ~out_dir spec ~seed ~base in
        let warm = W.query_source ~draws:6 ~seed in
        for _ = 1 to 200 do
          ignore (Stack.await (st.Stack.issue (W.Query (warm ()))))
        done;
        (base, ops, st))
  in
  (base, ops, st, us /. 1e6)

(* Writes the spans of one traced phase, plus the probe spans, as JSON
   lines: id, request id, name, parent span id, start and end (µs from
   the phase start). *)
let write_spans path ~t0 (samples : H.sample array) (probes : Probes.span list) =
  let oc = open_out path in
  let id = ref 0 in
  let span ~req ~parent name a b =
    incr id;
    Printf.fprintf oc
      "{\"id\": %d, \"req\": %d, \"name\": %S, \"parent\": %s, \"start_us\": %.3f, \"end_us\": %.3f}\n"
      !id req name
      (match parent with Some p -> string_of_int p | None -> "null")
      (a -. t0) (b -. t0);
    !id
  in
  Array.iter
    (fun (s : H.sample) ->
      let req = s.H.index in
      let name = if H.is_write s.H.op then "op.write" else "op.query" in
      let root = span ~req ~parent:None name s.H.due s.H.finished in
      ignore (span ~req ~parent:(Some root) "generator.late" s.H.due s.H.issued);
      let call = span ~req ~parent:(Some root) "client.call" s.H.issued s.H.returned in
      (match s.H.inner with
      | Some (n, a, b) -> ignore (span ~req ~parent:(Some call) n a b)
      | None -> ());
      if s.H.finished > s.H.returned then
        ignore (span ~req ~parent:(Some root) "pool.wait_and_run" s.H.returned s.H.finished))
    samples;
  List.iter
    (fun (p : Probes.span) ->
      ignore (span ~req:(-1) ~parent:None p.Probes.s_name p.Probes.s_start p.Probes.s_end))
    probes;
  close_out oc;
  !id

let report_verdict label (v : H.verdict) =
  Printf.printf "check %s: %d outcomes checked, %d mismatches\n" label v.H.checked
    v.H.mismatches;
  List.iter (fun e -> Printf.printf "  MISMATCH %s\n" e) v.H.errors;
  v.H.mismatches = 0

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let out_dir = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--out", Arg.Set_string out_dir, "directory for store files and spans");
    ]
    (fun a -> die "unexpected argument %s" a)
    usage;
  let spec =
    match W.find !workload with
    | Some s -> s
    | None ->
        die "unknown workload %S (one of: %s)" !workload
          (String.concat ", " (List.map (fun s -> s.W.name) W.all))
  in
  if !seed < 0 then die "--seed must be given and non-negative";
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds and out_dir = !out_dir in
  Topk_durable.Disk.mkdir_p out_dir;
  Printf.printf "workload %s\nseed %d, %g s, trace %d\n%!" (W.describe spec) seed seconds
    !trace;
  let n_open =
    int_of_float (spec.W.rate *. seconds *. if traced then 0.25 else open_share)
  in
  let writes = Atomic.make 0 in
  if not traced then begin
    let setup_times = ref [] in
    let rec build r =
      let base, ops, st, s = setup spec ~seed ~out_dir ~count:n_open in
      setup_times := s :: !setup_times;
      if r < setups then begin
        Stack.shutdown st;
        Gc.compact ();
        build (r + 1)
      end
      else (base, ops, st)
    in
    let base, ops, st = build 1 in
    let setup_s = Pct.median (Array.of_list !setup_times) in
    let wb = H.writes_before ops in
    let opened =
      H.open_loop st ~ops ~wb ~writes ~trace:false ~first:0 ~count:n_open ~rate:spec.W.rate
    in
    (* After the fixed amount of work of the set-ups and the open loop:
       the closed loop's ops and samples grow with its speed, and the
       correctness check's tables are not the program's. *)
    let heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1e6
    in
    (* The whole stream; its first [n_open] ops are the ones the open
       loop issued, since generation is prefix-stable. *)
    let ops =
      W.ops spec ~seed ~base
        ~count:(n_open + int_of_float (max_peak *. seconds *. closed_share))
    in
    let wb = H.writes_before ops in
    let closed, closed_t0 =
      H.closed_loop st ~ops ~wb ~writes ~first:n_open ~seconds:(seconds *. closed_share)
        ~outstanding
    in
    Svc.Executor.drain st.Stack.pool;
    (* Only the ops issued: unissued inserts would pad every scan. *)
    let all = Array.append opened closed in
    let reference = H.reference ~base (Array.sub ops 0 (Array.length all)) in
    let ok_answers = report_verdict "answers" (H.verify ~reference ~k:spec.W.k all) in
    (* The store's final state must survive close and recovery intact. *)
    let extra, ok_store =
      match st.Stack.store with
      | Some store ->
          let total_writes = Atomic.get writes in
          let live = Stack.DS.I.size (Stack.DS.index store) in
          Stack.DS.close store;
          (* Closing seals and merges, and a merge's checkpoint leaves
             its GC sweep on the pool: let it finish before reading the
             directory. *)
          Svc.Executor.drain st.Stack.pool;
          let dir = Option.get st.Stack.dir in
          let bytes = Stack.dir_bytes dir in
          let recovered, rec_us =
            Clock.time_us (fun () ->
                Stack.DS.recover ~params:(Topk_interval.Instances.params ()) ~buffer_cap:256
                  ~mode:(Topk_durable.Store.Async 64) ~dir ())
          in
          let ok =
            match recovered with
            | None -> false
            | Some r ->
                let probe = W.query_source ~draws:8 ~seed in
                let ok = ref (Stack.DS.I.size (Stack.DS.index r) = live) in
                for _ = 1 to 200 do
                  let q = probe () in
                  let got =
                    Array.of_list
                      (List.map
                         (fun (e : Topk_interval.Interval.t) -> e.Topk_interval.Interval.id)
                         (Stack.DS.query r q ~k:spec.W.k))
                  in
                  if got <> H.top_k reference ~at:total_writes q ~k:spec.W.k then ok := false
                done;
                Stack.DS.close r;
                !ok
          in
          Printf.printf "check recovery: %s\n" (if ok then "state intact" else "MISMATCH");
          ( [
              Probes.m "recover_s" "s" (rec_us /. 1e6);
              Probes.m "disk_bytes_per_elem" "B" (float_of_int bytes /. float_of_int live);
            ],
            ok )
      | None -> ([], true)
    in
    Stack.shutdown st;
    let q_lat = lat_of opened (fun s -> H.is_query s.H.op) in
    let w_lat = lat_of opened (fun s -> H.is_write s.H.op) in
    let op_lat = lat_of opened (fun _ -> true) in
    if Array.length q_lat = 0 then die "no query completed in the open loop";
    let attempted = Array.length all and failed = failed_count all in
    let closed_s = seconds *. closed_share in
    let peak = H.throughput closed ~t0:closed_t0 ~seconds:closed_s ~window_s:1. in
    let mt = Probes.m in
    let pct name xs p = mt name "us" (Pct.percentile xs ~p) in
    (* Gated: steady enough across runs on a shared 2-vCPU machine to
       hold a 25% bound, and present and non-zero on every workload.
       The tails, the write latencies (op_p50_us on ingest_durable
       spread up to 0.25) and the durable-only figures are printed
       beside them, ungated. *)
    let metrics =
      [
        mt "setup_s" "s" setup_s;
        mt "query_p50_us" "us" (windowed_p50 opened (fun s -> H.is_query s.H.op) ~windows);
        mt "peak_ops_s" "ops/s" peak;
        mt "ok_ratio" "ratio" (float_of_int (attempted - failed) /. float_of_int attempted);
        mt "ios_per_query" "I/O" (query_ios opened);
        mt "heap_peak_mb" "MB" heap_mb;
      ]
    in
    let ungated =
      [
        pct "query_p99_us" q_lat 99.;
        mt "op_p50_us" "us" (windowed_p50 opened (fun _ -> true) ~windows);
        pct "op_p99_us" op_lat 99.;
      ]
      @ (if Array.length w_lat = 0 then []
         else [ pct "write_p50_us" w_lat 50.; pct "write_p99_us" w_lat 99. ])
      @ [ mt "fail_ratio" "ratio" (float_of_int failed /. float_of_int attempted) ]
      @ extra
    in
    Printf.printf "setup runs: %s s\n"
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times));
    Printf.printf "open loop: %d ops (%d queries, %d writes) at %.0f ops/s for %.1f s\n"
      (Array.length opened) (Array.length q_lat) (Array.length w_lat) spec.W.rate
      (seconds *. open_share);
    Printf.printf "closed loop: %d ops, %d outstanding, %.1f s\n" (Array.length closed)
      outstanding closed_s;
    let samples name =
      if String.starts_with ~prefix:"query_p" name then Printf.sprintf " (%d samples)" (Array.length q_lat)
      else if String.starts_with ~prefix:"op_p" name then Printf.sprintf " (%d samples)" (Array.length op_lat)
      else if String.starts_with ~prefix:"write_p" name then Printf.sprintf " (%d samples)" (Array.length w_lat)
      else ""
    in
    let show tag (x : Probes.metric) =
      Printf.printf "%s %.6f %s%s%s\n" x.Probes.name x.Probes.value x.Probes.unit_
        (samples x.Probes.name) tag
    in
    List.iter (show "") metrics;
    List.iter (show " [not gated]") ungated;
    let correct = ok_answers && ok_store in
    print_result ~correct ~attempted ~failed metrics;
    if not correct then exit 1
  end
  else begin
    (* Four segments, plain-traced-traced-plain, so that drift (a
       cache filling, a live set growing) falls on both sides alike. *)
    let seg = n_open / 2 in
    let base, ops, st, _ = setup spec ~seed ~out_dir ~count:(4 * seg) in
    let wb = H.writes_before ops in
    let segment i ~trace =
      H.open_loop st ~ops ~wb ~writes ~trace ~first:(i * seg) ~count:seg ~rate:spec.W.rate
    in
    let plain_1 = segment 0 ~trace:false in
    let pm = Svc.Executor.metrics st.Stack.pool in
    let cache0 = Option.get (Svc.Client.cache_stats st.Stack.client) in
    let sum_lanes a = Array.fold_left (fun acc c -> acc + M.Counter.get c) 0 a in
    let shed0 = sum_lanes pm.M.lane_shed and sub0 = M.Counter.get pm.M.submitted in
    let gc0 = Gc.quick_stat () in
    let t_phase = Clock.now_us () in
    let traced_1 = segment 1 ~trace:true in
    let traced_2 = segment 2 ~trace:true in
    let traced_samples = Array.append traced_1 traced_2 in
    Svc.Executor.drain st.Stack.pool;
    let gc1 = Gc.quick_stat () in
    let cache1 = Option.get (Svc.Client.cache_stats st.Stack.client) in
    let shed = sum_lanes pm.M.lane_shed - shed0 and sub = M.Counter.get pm.M.submitted - sub0 in
    let untraced = Array.append plain_1 (segment 3 ~trace:false) in
    let probe_spans = ref [] in
    let layers =
      Probes.run st ~seed ~sizes:probe_sizes ~record:(fun s -> probe_spans := s :: !probe_spans)
    in
    let reference = H.reference ~base ops in
    let ok =
      report_verdict "answers"
        (H.verify ~reference ~k:spec.W.k (Array.append untraced traced_samples))
    in
    Stack.shutdown st;
    let nops = float_of_int (Array.length traced_samples) in
    let q50 xs = Pct.median (lat_of xs (fun s -> H.is_query s.H.op)) in
    let q_off = q50 untraced and q_on = q50 traced_samples in
    let get name = (List.find (fun (x : Probes.metric) -> x.Probes.name = name) layers).Probes.value in
    let hits = cache1.Cache.st_hits - cache0.Cache.st_hits in
    let lookups =
      hits + cache1.Cache.st_misses - cache0.Cache.st_misses + cache1.Cache.st_stale
      - cache0.Cache.st_stale
    in
    let hit_ratio = float_of_int hits /. float_of_int (max 1 lookups) in
    let structure =
      match spec.W.kind with
      | W.Static_uniform -> "core.t2_query_us"
      | W.Ingest_durable -> "ingest.query_us"
    in
    let blocking =
      get structure +. get "client.direct_overhead_us" +. get "executor.handoff_us"
    in
    let depth =
      Array.map (fun (s : H.sample) -> float_of_int s.H.queue_depth) traced_samples
    in
    let late = Array.map (fun (s : H.sample) -> s.H.issued -. s.H.due) traced_samples in
    let mt = Probes.m in
    let metrics =
      layers
      @ [
          mt "executor.queue_depth_p99" "requests" (Pct.percentile depth ~p:99.);
          mt "executor.shed_ratio" "ratio" (float_of_int shed /. float_of_int (max 1 (sub + shed)));
          mt "cache.hit_ratio" "ratio" hit_ratio;
          mt "cache.evictions_per_kop" "evictions/kop"
            (float_of_int (cache1.Cache.st_evictions - cache0.Cache.st_evictions) /. nops *. 1000.);
          mt "gc.minor_words_per_op" "words" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. nops);
          mt "gc.major_per_kop" "collections/kop"
            (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. nops *. 1000.);
          mt "harness.gen_late_p99_us" "us" (Pct.percentile late ~p:99.);
          mt "harness.unexplained_us" "us" (q_on -. blocking);
          mt "harness.trace_overhead_pct" "%" ((q_on -. q_off) /. q_off *. 100.);
        ]
    in
    let path =
      Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" spec.W.name seed)
    in
    let nspans = write_spans path ~t0:t_phase traced_samples (List.rev !probe_spans) in
    Printf.printf "spans: %d written to %s\n" nspans path;
    Printf.printf "query_p50_us untraced %.3f, traced %.3f\n" q_off q_on;
    List.iter
      (fun (x : Probes.metric) -> Printf.printf "%s %.6f %s\n" x.Probes.name x.Probes.value x.Probes.unit_)
      metrics;
    let all = Array.append untraced traced_samples in
    print_result ~correct:ok ~attempted:(Array.length all) ~failed:(failed_count all) metrics;
    if not ok then exit 1
  end
