(* Tests for the interval-stabbing structures and the reductions
   instantiated on them (Theorem 4). *)

module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module I = Topk_interval.Interval
module Problem = Topk_interval.Problem
module Seg = Topk_interval.Seg_stab
module Max = Topk_interval.Slab_max
module Inst = Topk_interval.Instances
module Sigs = Topk_core.Sigs

let mk ?id ~lo ~hi ~w () = I.make ?id ~lo ~hi ~weight:w ()

let ids elems = List.map (fun (e : I.t) -> e.I.id) elems

let check_ids = Alcotest.(check (list int))

let workload rng ~shape ~n =
  Inst.Oracle.build (I.of_spans rng (Gen.intervals rng ~shape ~n))

(* --- Interval basics --- *)

let test_make_validates () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (mk ~lo:2. ~hi:1. ~w:0. ()));
  Alcotest.check_raises "nan" (Invalid_argument "Interval.make: NaN bound")
    (fun () -> ignore (mk ~lo:Float.nan ~hi:1. ~w:0. ()))

let test_contains () =
  let itv = mk ~lo:1. ~hi:3. ~w:5. () in
  Alcotest.(check bool) "inside" true (I.contains itv 2.);
  Alcotest.(check bool) "left endpoint" true (I.contains itv 1.);
  Alcotest.(check bool) "right endpoint" true (I.contains itv 3.);
  Alcotest.(check bool) "outside left" false (I.contains itv 0.999);
  Alcotest.(check bool) "outside right" false (I.contains itv 3.001)

let test_weight_order_tiebreak () =
  let a = mk ~id:1 ~lo:0. ~hi:1. ~w:5. () in
  let b = mk ~id:2 ~lo:0. ~hi:1. ~w:5. () in
  Alcotest.(check bool) "tie broken by id" true (I.compare_weight a b < 0);
  Alcotest.(check int) "antisymmetric" (-(I.compare_weight b a))
    (I.compare_weight a b)

(* --- Slabs --- *)

let test_slabs_structure () =
  let s = Topk_interval.Slabs.of_endpoints [| 3.; 1.; 2.; 1. |] in
  (* Distinct coords: 1, 2, 3 -> 7 slabs. *)
  Alcotest.(check int) "slab count" 7 (Topk_interval.Slabs.slab_count s);
  Alcotest.(check int) "coord count" 3 (Topk_interval.Slabs.coord_count s);
  (* Coordinates land on odd (point) slabs, gaps on even slabs. *)
  Alcotest.(check int) "coord 1" 1 (Topk_interval.Slabs.slab_of_point s 1.);
  Alcotest.(check int) "coord 2" 3 (Topk_interval.Slabs.slab_of_point s 2.);
  Alcotest.(check int) "coord 3" 5 (Topk_interval.Slabs.slab_of_point s 3.);
  Alcotest.(check int) "before all" 0 (Topk_interval.Slabs.slab_of_point s 0.);
  Alcotest.(check int) "gap 1-2" 2 (Topk_interval.Slabs.slab_of_point s 1.5);
  Alcotest.(check int) "gap 2-3" 4 (Topk_interval.Slabs.slab_of_point s 2.5);
  Alcotest.(check int) "after all" 6 (Topk_interval.Slabs.slab_of_point s 9.);
  Alcotest.(check int) "slab_of_coord" 3 (Topk_interval.Slabs.slab_of_coord s 2.);
  Alcotest.check_raises "not a coordinate"
    (Invalid_argument "Slabs.slab_of_coord: not a coordinate") (fun () ->
      ignore (Topk_interval.Slabs.slab_of_coord s 1.5))

let prop_slabs_monotone =
  QCheck.Test.make ~count:100 ~name:"slab index is monotone in the point"
    QCheck.(pair (int_bound 10_000) (int_bound 50))
    (fun (seed, raw_m) ->
      let m = max 1 raw_m in
      let rng = Rng.create seed in
      let coords = Array.init m (fun _ -> Rng.uniform rng) in
      let s = Topk_interval.Slabs.of_endpoints coords in
      let qs = Array.init 50 (fun _ -> Rng.float rng 1.2 -. 0.1) in
      Array.sort Float.compare qs;
      let slabs = Array.map (Topk_interval.Slabs.slab_of_point s) qs in
      Topk_util.Search.is_sorted ~cmp:Int.compare slabs)

(* --- Prioritized structure (Seg_stab) --- *)

let sorted_ids elems =
  List.sort Int.compare (ids elems)

let test_seg_stab_matches_oracle () =
  let rng = Rng.create 7 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:300 in
      let s = Seg.build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:50 in
      Array.iter
        (fun q ->
          List.iter
            (fun tau ->
              let expected = Inst.Oracle.prioritized oracle q ~tau in
              let got = Seg.query s q ~tau in
              check_ids "prioritized query" (sorted_ids expected)
                (sorted_ids got))
            [ Float.neg_infinity; 50.; 150.; 290.; 301. ])
        queries)
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_seg_stab_endpoint_queries () =
  let rng = Rng.create 11 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:200 in
  let elems = Inst.Oracle.elements oracle in
  let s = Seg.build elems in
  (* Query exactly at interval endpoints: closed-interval semantics. *)
  Array.iteri
    (fun i (itv : I.t) ->
      if i mod 10 = 0 then begin
        List.iter
          (fun q ->
            let expected = Inst.Oracle.prioritized oracle q ~tau:Float.neg_infinity in
            let got = Seg.query s q ~tau:Float.neg_infinity in
            check_ids "endpoint stab" (sorted_ids expected) (sorted_ids got))
          [ itv.I.lo; itv.I.hi ]
      end)
    elems

let test_seg_stab_monitored () =
  let rng = Rng.create 13 in
  let oracle = workload rng ~shape:Gen.Nested_intervals ~n:500 in
  let s = Seg.build (Inst.Oracle.elements oracle) in
  let q = 0.5 (* center of nested intervals: everything matches *) in
  let total = Inst.Oracle.count oracle q in
  Alcotest.(check bool) "big result" true (total > 400);
  (match Seg.query_monitored s q ~tau:Float.neg_infinity ~limit:10 with
   | Sigs.Truncated prefix ->
       Alcotest.(check int) "stops at limit+1" 11 (List.length prefix)
   | Sigs.All _ -> Alcotest.fail "expected truncation");
  (match Seg.query_monitored s q ~tau:Float.neg_infinity ~limit:total with
   | Sigs.All all -> Alcotest.(check int) "full result" total (List.length all)
   | Sigs.Truncated _ -> Alcotest.fail "unexpected truncation")

let test_seg_stab_empty_and_single () =
  let s = Seg.build [||] in
  Alcotest.(check int) "empty query" 0
    (List.length (Seg.query s 0.5 ~tau:Float.neg_infinity));
  let one = mk ~id:1 ~lo:0.2 ~hi:0.8 ~w:1. () in
  let s = Seg.build [| one |] in
  check_ids "hit" [ 1 ] (ids (Seg.query s 0.5 ~tau:Float.neg_infinity));
  check_ids "miss" [] (ids (Seg.query s 0.9 ~tau:Float.neg_infinity));
  check_ids "tau filters" [] (ids (Seg.query s 0.5 ~tau:2.))

(* --- Interval-tree prioritized (linear space) --- *)

let test_itree_matches_oracle () =
  let rng = Rng.create 14 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:300 in
      let s = Topk_interval.Itree_pri.build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:50 in
      Array.iter
        (fun q ->
          List.iter
            (fun tau ->
              check_ids "itree prioritized"
                (sorted_ids (Inst.Oracle.prioritized oracle q ~tau))
                (sorted_ids (Topk_interval.Itree_pri.query s q ~tau)))
            [ Float.neg_infinity; 150.; 500. ])
        queries)
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_itree_linear_space_and_depth () =
  let rng = Rng.create 15 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:4096 in
  let elems = Inst.Oracle.elements oracle in
  let itree = Topk_interval.Itree_pri.build elems in
  let seg = Seg.build elems in
  (* Linear vs n log n: the interval tree must be much smaller. *)
  Alcotest.(check bool) "itree smaller than segment tree" true
    (Topk_interval.Itree_pri.space_words itree < Seg.space_words seg / 2);
  Alcotest.(check bool) "logarithmic depth" true
    (Topk_interval.Itree_pri.depth itree <= 3 * 12)

let test_itree_reduction_matches_oracle () =
  let rng = Rng.create 16 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:400 in
  let elems = Inst.Oracle.elements oracle in
  let t2 = Inst.Topk_t2_itree.build ~params:(Inst.params ()) elems in
  let queries = Gen.stab_queries rng ~n:25 in
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          check_ids "theorem2 over itree"
            (ids (Inst.Oracle.top_k oracle q ~k))
            (ids (Inst.Topk_t2_itree.query t2 q ~k)))
        [ 1; 7; 80; 900 ])
    queries

(* --- Max structure (Slab_max) --- *)

let test_slab_max_matches_oracle () =
  let rng = Rng.create 17 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:400 in
      let m = Max.build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:100 in
      Array.iter
        (fun q ->
          let expected = Inst.Oracle.max oracle q in
          let got = Max.query m q in
          Alcotest.(check (option int))
            "max id"
            (Option.map (fun (e : I.t) -> e.I.id) expected)
            (Option.map (fun (e : I.t) -> e.I.id) got))
        queries)
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_slab_max_endpoints () =
  let rng = Rng.create 19 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:300 in
  let elems = Inst.Oracle.elements oracle in
  let m = Max.build elems in
  Array.iteri
    (fun i (itv : I.t) ->
      if i mod 7 = 0 then
        List.iter
          (fun q ->
            let expected = Inst.Oracle.max oracle q in
            let got = Max.query m q in
            Alcotest.(check (option int))
              "max at endpoint"
              (Option.map (fun (e : I.t) -> e.I.id) expected)
              (Option.map (fun (e : I.t) -> e.I.id) got))
          [ itv.I.lo; itv.I.hi ])
    elems

(* --- Counting structure --- *)

let test_stab_count_matches_oracle () =
  let rng = Rng.create 21 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:400 in
      let c = Topk_interval.Stab_count.build (Inst.Oracle.elements oracle) in
      Array.iter
        (fun q ->
          Alcotest.(check int)
            "stab count" (Inst.Oracle.count oracle q)
            (Topk_interval.Stab_count.count c q))
        (Gen.stab_queries rng ~n:80))
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_stab_count_endpoints () =
  let rng = Rng.create 22 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:200 in
  let elems = Inst.Oracle.elements oracle in
  let c = Topk_interval.Stab_count.build elems in
  Array.iteri
    (fun i (itv : I.t) ->
      if i mod 13 = 0 then
        List.iter
          (fun q ->
            Alcotest.(check int)
              "count at endpoint" (Inst.Oracle.count oracle q)
              (Topk_interval.Stab_count.count c q))
          [ itv.I.lo; itv.I.hi ])
    elems

(* --- Reductions end to end (Theorem 4) --- *)

let check_topk name structure_query oracle queries ks =
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          let expected = Inst.Oracle.top_k oracle q ~k in
          let got = structure_query q ~k in
          check_ids
            (Printf.sprintf "%s top-%d" name k)
            (ids expected) (ids got))
        ks)
    queries

let reduction_case name build query_fn =
  let rng = Rng.create 23 in
  List.iter
    (fun (shape, n) ->
      let oracle = workload rng ~shape ~n in
      let t = build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:25 in
      check_topk name (query_fn t) oracle queries
        [ 1; 2; 3; 10; 50; n / 2; n; 2 * n ])
    [ (Gen.Short_intervals, 300);
      (Gen.Mixed_intervals, 500);
      (Gen.Nested_intervals, 400) ]

let test_theorem1_correct () =
  reduction_case "theorem1"
    (fun elems -> Inst.Topk_t1.build ~params:(Inst.params ()) elems)
    (fun t q ~k -> Inst.Topk_t1.query t q ~k)

let test_theorem2_correct () =
  reduction_case "theorem2"
    (fun elems -> Inst.Topk_t2.build ~params:(Inst.params ()) elems)
    (fun t q ~k -> Inst.Topk_t2.query t q ~k)

let test_baseline_rj_correct () =
  reduction_case "baseline-rj"
    (fun elems -> Inst.Topk_rj.build elems)
    (fun t q ~k -> Inst.Topk_rj.query t q ~k)

let test_rj_counting_correct () =
  reduction_case "rj-counting"
    (fun elems -> Inst.Topk_rj_counting.build elems)
    (fun t q ~k -> Inst.Topk_rj_counting.query t q ~k)

let test_naive_correct () =
  reduction_case "naive"
    (fun elems -> Inst.Topk_naive.build elems)
    (fun t q ~k -> Inst.Topk_naive.query t q ~k)

(* k = 0 and negative k return nothing; k = 1 agrees with max. *)
let test_topk_degenerate_k () =
  let rng = Rng.create 29 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:200 in
  let elems = Inst.Oracle.elements oracle in
  let t1 = Inst.Topk_t1.build ~params:(Inst.params ()) elems in
  let t2 = Inst.Topk_t2.build ~params:(Inst.params ()) elems in
  Alcotest.(check int) "t1 k=0" 0 (List.length (Inst.Topk_t1.query t1 0.5 ~k:0));
  Alcotest.(check int) "t2 k=-1" 0
    (List.length (Inst.Topk_t2.query t2 0.5 ~k:(-1)));
  let m = Max.build elems in
  let queries = Gen.stab_queries rng ~n:40 in
  Array.iter
    (fun q ->
      let top1 = Inst.Topk_t2.query t2 q ~k:1 in
      let mx = Max.query m q in
      Alcotest.(check (option int))
        "k=1 equals max"
        (Option.map (fun (e : I.t) -> e.I.id) mx)
        (match top1 with [] -> None | e :: _ -> Some e.I.id))
    queries

(* Property-based: random workloads, random queries, all reductions
   agree with the oracle. *)
let prop_reductions_agree =
  QCheck.Test.make ~count:30 ~name:"reductions agree with oracle"
    QCheck.(pair (int_bound 1000) (int_bound 300))
    (fun (seed, raw_n) ->
      let n = max 4 raw_n in
      let rng = Rng.create seed in
      let shape =
        match seed mod 3 with
        | 0 -> Gen.Short_intervals
        | 1 -> Gen.Mixed_intervals
        | _ -> Gen.Nested_intervals
      in
      let oracle = workload rng ~shape ~n in
      let elems = Inst.Oracle.elements oracle in
      let t1 = Inst.Topk_t1.build ~params:(Inst.params ()) elems in
      let t2 = Inst.Topk_t2.build ~params:(Inst.params ()) elems in
      let rj = Inst.Topk_rj.build elems in
      let qs = Gen.stab_queries rng ~n:5 in
      let ks = [ 1; 7; n / 3; n ] in
      Array.for_all
        (fun q ->
          List.for_all
            (fun k ->
              let expected = ids (Inst.Oracle.top_k oracle q ~k) in
              expected = ids (Inst.Topk_t1.query t1 q ~k)
              && expected = ids (Inst.Topk_t2.query t2 q ~k)
              && expected = ids (Inst.Topk_rj.query rj q ~k))
            ks)
        qs)

(* --- Equivalence with the list-based segment-tree build --- *)

(* The build Seg_stab and Stab_count used before the flat layout: each
   interval is consed onto its canonical nodes, then every node's list
   is sorted by decreasing weight.  It is the reference the current
   builds must reproduce node for node, charge for charge. *)
module Ref_tree = struct
  module Slabs = Topk_interval.Slabs
  module Stats = Topk_em.Stats

  type t = { slabs : Slabs.t; lists : I.t array array; leaves : int }

  let rec next_pow2 x k = if k >= x then k else next_pow2 x (2 * k)

  let build elems =
    let slabs =
      Slabs.of_endpoints
        (Array.append
           (Array.map (fun (e : I.t) -> e.I.lo) elems)
           (Array.map (fun (e : I.t) -> e.I.hi) elems))
    in
    let leaves = next_pow2 (max 1 (Slabs.slab_count slabs)) 1 in
    let lists = Array.make (2 * leaves) [] in
    Array.iter
      (fun (itv : I.t) ->
        let l = Slabs.slab_of_coord slabs itv.I.lo in
        let r = Slabs.slab_of_coord slabs itv.I.hi in
        let rec go node node_lo node_hi =
          if l <= node_lo && r >= node_hi - 1 then
            lists.(node) <- itv :: lists.(node)
          else begin
            let mid = (node_lo + node_hi) / 2 in
            if l < mid then go (2 * node) node_lo mid;
            if r >= mid then go ((2 * node) + 1) mid node_hi
          end
        in
        go 1 0 leaves)
      elems;
    let lists =
      Array.map
        (fun l ->
          let a = Array.of_list l in
          Array.sort (fun a b -> I.compare_weight b a) a;
          a)
        lists
    in
    { slabs; lists; leaves }

  let space_words t =
    Slabs.space_words t.slabs
    + Array.fold_left (fun acc l -> acc + Array.length l) 0 t.lists
    + Array.length t.lists

  let path t q f =
    let node = ref (t.leaves + Slabs.slab_of_point t.slabs q) in
    while !node >= 1 do
      Stats.charge_ios 1;
      f t.lists.(!node);
      node := !node / 2
    done

  let visit t q ~tau f =
    path t q (fun lst ->
        try
          Array.iter
            (fun (itv : I.t) ->
              if itv.I.weight < tau then raise Exit;
              Stats.charge_scan 1;
              f itv)
            lst
        with Exit -> ())

  let count t q =
    let total = ref 0 in
    path t q (fun lst -> total := !total + Array.length lst);
    !total
end

(* Coordinates with duplicates, signed zeros and infinities. *)
let coord_pool = [| neg_infinity; -1.; -0.; 0.; 0.5; 1.; 2.; infinity |]

let pool_coord rng =
  if Rng.bool rng then coord_pool.(Rng.int rng (Array.length coord_pool))
  else Float.round (Rng.float rng 8.) /. 2.

let pool_intervals rng n =
  Array.init n (fun i ->
      let a = pool_coord rng and b = pool_coord rng in
      let lo, hi = if Rng.int rng 5 = 0 then (a, a) else (Float.min a b, Float.max a b) in
      mk ~id:(i + 1) ~lo ~hi ~w:(float_of_int (Rng.int rng 4)) ())

(* A point in every slab: each coordinate, one point strictly inside
   every gap that has one, and NaN. *)
let slab_probes (elems : I.t array) =
  let coords =
    Array.append
      (Array.map (fun (e : I.t) -> e.I.lo) elems)
      (Array.map (fun (e : I.t) -> e.I.hi) elems)
  in
  Array.sort Float.compare coords;
  let m = Array.length coords in
  let gaps =
    List.init (m + 1) (fun i ->
        if m = 0 then [ 0. ]
        else if i = 0 then [ coords.(0) -. 1. ]
        else if i = m then [ coords.(m - 1) +. 1. ]
        else [ (coords.(i - 1) /. 2.) +. (coords.(i) /. 2.) ])
  in
  Array.to_list coords @ List.concat gaps @ [ neg_infinity; infinity; Float.nan ]

let median_weight (elems : I.t array) =
  if elems = [||] then 0.
  else begin
    let ws = Array.map (fun (e : I.t) -> e.I.weight) elems in
    Array.sort Float.compare ws;
    ws.(Array.length ws / 2)
  end

let prop_seg_stab_matches_list_build =
  QCheck.Test.make ~count:200
    ~name:"seg_stab and stab_count equal the list-based build"
    QCheck.(pair (int_bound 100_000) (int_bound 40))
    (fun (seed, raw_n) ->
      let rng = Rng.create seed in
      List.for_all
        (fun n ->
          let elems = pool_intervals rng n in
          let seg = Seg.build elems in
          let cnt = Topk_interval.Stab_count.build elems in
          let reference = Ref_tree.build elems in
          let collect visit = Topk_em.Stats.measure (fun () ->
              let acc = ref [] in
              visit (fun (e : I.t) -> acc := e.I.id :: !acc);
              List.rev !acc)
          in
          Seg.space_words seg = Ref_tree.space_words reference
          && List.for_all
               (fun q ->
                 Topk_em.Stats.measure (fun () -> Topk_interval.Stab_count.count cnt q)
                 = Topk_em.Stats.measure (fun () -> Ref_tree.count reference q)
                 && List.for_all
                      (fun tau ->
                        collect (Seg.visit seg q ~tau)
                        = collect (Ref_tree.visit reference q ~tau))
                      [ neg_infinity; median_weight elems; infinity ])
               (slab_probes elems))
        [ 0; 1; raw_n ])

let prop_slabs_match_sorted_dedupe =
  QCheck.Test.make ~count:200
    ~name:"of_endpoints equals Float.compare sort plus dedupe"
    QCheck.(pair (int_bound 100_000) (int_bound 300))
    (fun (seed, m) ->
      let module Slabs = Topk_interval.Slabs in
      let rng = Rng.create seed in
      let raw = Array.init m (fun _ -> pool_coord rng) in
      let sorted = Array.copy raw in
      Array.sort Float.compare sorted;
      let distinct =
        Array.of_list
          (Array.fold_right
             (fun x acc -> match acc with y :: _ when x = y -> acc | _ -> x :: acc)
             sorted [])
      in
      let s = Slabs.of_endpoints raw in
      let slab_of_point q =
        let i = Topk_util.Search.lower_bound ~cmp:Float.compare distinct q in
        if i < Array.length distinct && distinct.(i) = q then (2 * i) + 1 else 2 * i
      in
      Slabs.coord_count s = Array.length distinct
      && Array.for_all Fun.id
           (Array.mapi (fun i c -> Slabs.slab_of_coord s c = (2 * i) + 1) distinct)
      && List.for_all
           (fun q -> Slabs.slab_of_point s q = slab_of_point q)
           (Array.to_list coord_pool @ List.init 20 (fun _ -> Rng.float rng 6. -. 2.)))

let () =
  Alcotest.run "topk_interval"
    [
      ( "interval",
        [
          Alcotest.test_case "make validates" `Quick test_make_validates;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "weight order tiebreak" `Quick
            test_weight_order_tiebreak;
        ] );
      ( "slabs",
        [
          Alcotest.test_case "structure" `Quick test_slabs_structure;
          QCheck_alcotest.to_alcotest prop_slabs_monotone;
          QCheck_alcotest.to_alcotest prop_slabs_match_sorted_dedupe;
        ] );
      ( "seg_stab",
        [
          Alcotest.test_case "matches oracle" `Quick
            test_seg_stab_matches_oracle;
          Alcotest.test_case "endpoint queries" `Quick
            test_seg_stab_endpoint_queries;
          Alcotest.test_case "monitored" `Quick test_seg_stab_monitored;
          Alcotest.test_case "empty and single" `Quick
            test_seg_stab_empty_and_single;
          QCheck_alcotest.to_alcotest prop_seg_stab_matches_list_build;
        ] );
      ( "itree_pri",
        [
          Alcotest.test_case "matches oracle" `Quick test_itree_matches_oracle;
          Alcotest.test_case "linear space, log depth" `Quick
            test_itree_linear_space_and_depth;
          Alcotest.test_case "theorem2 over itree" `Quick
            test_itree_reduction_matches_oracle;
        ] );
      ( "slab_max",
        [
          Alcotest.test_case "matches oracle" `Quick
            test_slab_max_matches_oracle;
          Alcotest.test_case "endpoints" `Quick test_slab_max_endpoints;
        ] );
      ( "stab_count",
        [
          Alcotest.test_case "matches oracle" `Quick
            test_stab_count_matches_oracle;
          Alcotest.test_case "endpoints" `Quick test_stab_count_endpoints;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "theorem1 correct" `Slow test_theorem1_correct;
          Alcotest.test_case "theorem2 correct" `Slow test_theorem2_correct;
          Alcotest.test_case "baseline-rj correct" `Slow
            test_baseline_rj_correct;
          Alcotest.test_case "rj-counting correct" `Slow
            test_rj_counting_correct;
          Alcotest.test_case "naive correct" `Quick test_naive_correct;
          Alcotest.test_case "degenerate k" `Quick test_topk_degenerate_k;
          QCheck_alcotest.to_alcotest prop_reductions_agree;
        ] );
    ]
