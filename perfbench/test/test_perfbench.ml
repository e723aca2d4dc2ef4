open Topk_perfbench
module W = Workload
module H = Harness
module I = Topk_interval.Interval
module Oracle = Topk_interval.Instances.Oracle
module Svc = Topk_service

let check_float msg want got = Alcotest.(check (float 0.)) msg want got

(* ---- percentiles ---- *)

let test_percentile_hand () =
  let one_to n = Array.init n (fun i -> float_of_int (i + 1)) in
  (* 1..10: rank ceil(p n / 100). *)
  check_float "p50 of 1..10" 5. (Pct.percentile (one_to 10) ~p:50.);
  check_float "p90 of 1..10" 9. (Pct.percentile (one_to 10) ~p:90.);
  check_float "p99 of 1..10" 10. (Pct.percentile (one_to 10) ~p:99.);
  check_float "p100 of 1..10" 10. (Pct.percentile (one_to 10) ~p:100.);
  check_float "p1 of 1..10" 1. (Pct.percentile (one_to 10) ~p:1.);
  (* Exactly at a rank boundary: no float drift past it. *)
  check_float "p99 of 1..100" 99. (Pct.percentile (one_to 100) ~p:99.);
  check_float "p99 of 1..1000" 990. (Pct.percentile (one_to 1000) ~p:99.);
  check_float "p50 of 1..1000" 500. (Pct.percentile (one_to 1000) ~p:50.);
  (* Unsorted input, odd count: the middle sample. *)
  check_float "median of 3" 2. (Pct.median [| 3.; 1.; 2. |]);
  check_float "median of 1" 7. (Pct.median [| 7. |]);
  check_float "p99 of 5" 40. (Pct.percentile [| 40.; 10.; 30.; 20.; 0. |] ~p:99.);
  Alcotest.(check int) "rank p99 n=1000" 990 (Pct.rank ~p:99. 1000);
  Alcotest.check_raises "no samples" (Invalid_argument "Pct: no samples") (fun () ->
      ignore (Pct.median [||]))

(* ---- seeded, program-blind generation ---- *)

let small spec = { spec with W.n = 2_000 }

let test_same_seed_same_stream () =
  List.iter
    (fun spec ->
      let spec = small spec in
      let gen seed =
        let base = W.data spec ~seed in
        (base, W.ops spec ~seed ~base ~count:3_000)
      in
      let b1, o1 = gen 5 and b2, o2 = gen 5 and b3, o3 = gen 6 in
      Alcotest.(check bool) (spec.W.name ^ ": same seed, same data") true (b1 = b2);
      Alcotest.(check bool) (spec.W.name ^ ": same seed, same ops") true (o1 = o2);
      Alcotest.(check bool) (spec.W.name ^ ": other seed, other data") false (b1 = b3);
      Alcotest.(check bool) (spec.W.name ^ ": other seed, other ops") false (o1 = o3);
      let prefix = W.ops spec ~seed:5 ~base:b1 ~count:1_000 in
      Alcotest.(check bool) (spec.W.name ^ ": prefix-stable") true
        (prefix = Array.sub o1 0 1_000))
    W.all

let test_mix () =
  let spec = small W.ingest_durable in
  let base = W.data spec ~seed:3 in
  let ops = W.ops spec ~seed:3 ~base ~count:20_000 in
  let writes = Array.fold_left (fun a op -> if H.is_write op then a + 1 else a) 0 ops in
  let frac = float_of_int writes /. 20_000. in
  Alcotest.(check bool) "about 90% writes" true (frac > 0.88 && frac < 0.92);
  (* Every delete names an element live at that point. *)
  let live = Hashtbl.create 4096 in
  Array.iter (fun (e : I.t) -> Hashtbl.replace live e.I.id ()) base;
  Array.iter
    (function
      | W.Insert e -> Hashtbl.replace live e.I.id ()
      | W.Delete e ->
          if not (Hashtbl.mem live e.I.id) then Alcotest.fail "delete of a dead id";
          Hashtbl.remove live e.I.id
      | W.Query _ -> ())
    ops

(* ---- the reference used by the correctness gate ---- *)

let ids l = Array.of_list (List.map (fun (e : I.t) -> e.I.id) l)

let test_reference_matches_oracle () =
  let spec = small W.ingest_durable in
  let base = W.data spec ~seed:9 in
  let ops = W.ops spec ~seed:9 ~base ~count:600 in
  let reference = H.reference ~base ops in
  let live = Hashtbl.create 4096 in
  Array.iter (fun (e : I.t) -> Hashtbl.replace live e.I.id e) base;
  let qs = W.query_source ~draws:2 ~seed:9 in
  let at = ref 0 in
  Array.iter
    (fun op ->
      (match op with
      | W.Insert e ->
          incr at;
          Hashtbl.replace live e.I.id e
      | W.Delete e ->
          incr at;
          Hashtbl.remove live e.I.id
      | W.Query _ -> ());
      if !at mod 50 = 0 then begin
        let oracle = Oracle.build (Array.of_seq (Hashtbl.to_seq_values live)) in
        for _ = 1 to 5 do
          let q = qs () in
          Alcotest.(check (array int)) "reference = oracle"
            (ids (Oracle.top_k oracle q ~k:spec.W.k))
            (H.top_k reference ~at:!at q ~k:spec.W.k)
        done
      end)
    ops

(* ---- the gate hard-fails on a wrong answer ---- *)

let test_gate_catches_mismatch () =
  let spec = small W.static_uniform in
  let base = W.data spec ~seed:4 in
  let ops = W.ops spec ~seed:4 ~base ~count:50 in
  let reference = H.reference ~base ops in
  let wb = H.writes_before ops in
  let samples =
    Array.mapi
      (fun i op ->
        let s = H.make_sample ops wb i ~due:0. in
        (match op with
        | W.Query q ->
            s.H.out <-
              Stack.Answer
                { ids = H.top_k reference ~at:0 q ~k:spec.W.k; ios = 1; hit = false; seq = None }
        | _ -> ());
        s)
      ops
  in
  Alcotest.(check int) "correct answers pass" 0
    (H.verify ~reference ~k:spec.W.k samples).H.mismatches;
  (match samples.(7).H.out with
  | Stack.Answer a when Array.length a.ids > 1 ->
      let swapped = Array.copy a.ids in
      swapped.(0) <- a.ids.(1);
      swapped.(1) <- a.ids.(0);
      samples.(7).H.out <- Stack.Answer { a with ids = swapped }
  | _ -> Alcotest.fail "expected a multi-element answer");
  Alcotest.(check int) "a reordered answer fails" 1
    (H.verify ~reference ~k:spec.W.k samples).H.mismatches

(* ---- exact counts on static_uniform ---- *)

let run_static seed =
  let spec = { W.static_uniform with W.n = 5_000 } in
  let base = W.data spec ~seed in
  let ops = W.ops spec ~seed ~base ~count:300 in
  let st = Stack.create spec ~seed ~base in
  Svc.Executor.drain st.Stack.pool;
  let before = Svc.Executor.aggregate_stats st.Stack.pool in
  let samples =
    H.open_loop st ~ops ~wb:(H.writes_before ops) ~writes:(Atomic.make 0) ~trace:false
      ~first:0 ~count:300 ~rate:20_000.
  in
  Svc.Executor.drain st.Stack.pool;
  let pooled =
    (Topk_em.Stats.diff (Svc.Executor.aggregate_stats st.Stack.pool) before).Topk_em.Stats.ios
  in
  Stack.shutdown st;
  let per_response =
    Array.fold_left
      (fun acc (s : H.sample) ->
        match s.H.out with
        | Stack.Answer a ->
            if a.hit then Alcotest.fail "static_uniform query served from the cache";
            acc + a.ios
        | _ -> Alcotest.fail "query failed")
      0 samples
  in
  (pooled, per_response)

let test_exact_counts () =
  let pooled, per_response = run_static 21 in
  Alcotest.(check int) "pool I/O = sum of per-response costs" pooled per_response;
  let _, again = run_static 21 in
  Alcotest.(check int) "ios repeat exactly for a fixed seed" per_response again

let () =
  Alcotest.run "perfbench"
    [
      ("percentile", [ Alcotest.test_case "hand-computed" `Quick test_percentile_hand ]);
      ( "generation",
        [
          Alcotest.test_case "seeded streams" `Quick test_same_seed_same_stream;
          Alcotest.test_case "op mix" `Quick test_mix;
        ] );
      ( "correctness gate",
        [
          Alcotest.test_case "reference = oracle" `Quick test_reference_matches_oracle;
          Alcotest.test_case "mismatch fails" `Quick test_gate_catches_mismatch;
        ] );
      ("exact counts", [ Alcotest.test_case "static_uniform" `Quick test_exact_counts ]);
    ]
