(* Tests for 2D point enclosure (Theorem 5). *)

module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module R = Topk_enclosure.Rect
module Enc_pri = Topk_enclosure.Enc_pri
module Enc_max = Topk_enclosure.Enc_max
module Inst = Topk_enclosure.Instances
module Sigs = Topk_core.Sigs

let random_rects rng n = R.of_boxes rng (Gen.rectangles rng ~n)

let random_queries rng n =
  Array.init n (fun _ -> (Rng.uniform rng, Rng.uniform rng))

let ids elems = List.map (fun (e : R.t) -> e.R.id) elems

let sorted_ids elems = List.sort Int.compare (ids elems)

let test_rect_basics () =
  let r = R.make ~x1:0. ~x2:2. ~y1:1. ~y2:3. ~weight:5. () in
  Alcotest.(check bool) "inside" true (R.contains r (1., 2.));
  Alcotest.(check bool) "corner" true (R.contains r (0., 1.));
  Alcotest.(check bool) "outside x" false (R.contains r (2.1, 2.));
  Alcotest.(check bool) "outside y" false (R.contains r (1., 0.9));
  Alcotest.check_raises "inverted" (Invalid_argument "Rect.make: inverted side")
    (fun () -> ignore (R.make ~x1:1. ~x2:0. ~y1:0. ~y2:1. ~weight:0. ()))

let test_projections () =
  let r = R.make ~id:9 ~x1:0. ~x2:2. ~y1:1. ~y2:3. ~weight:5. () in
  let xi = R.x_interval r and yi = R.y_interval r in
  Alcotest.(check int) "x id" 9 xi.Topk_interval.Interval.id;
  Alcotest.(check (float 0.)) "x lo" 0. xi.Topk_interval.Interval.lo;
  Alcotest.(check (float 0.)) "y hi" 3. yi.Topk_interval.Interval.hi

let test_enc_pri_matches_oracle () =
  let rng = Rng.create 101 in
  let rects = random_rects rng 400 in
  let oracle = Inst.Oracle.build rects in
  let s = Enc_pri.build rects in
  Array.iter
    (fun q ->
      List.iter
        (fun tau ->
          let expected = Inst.Oracle.prioritized oracle q ~tau in
          let got = Enc_pri.query s q ~tau in
          Alcotest.(check (list int))
            "enc prioritized" (sorted_ids expected) (sorted_ids got))
        [ Float.neg_infinity; 150.; 380.; 500. ])
    (random_queries rng 60)

let test_enc_pri_corner_queries () =
  let rng = Rng.create 103 in
  let rects = random_rects rng 200 in
  let oracle = Inst.Oracle.build rects in
  let s = Enc_pri.build rects in
  (* Stab exactly at rectangle corners: closed semantics on both axes. *)
  Array.iteri
    (fun i (r : R.t) ->
      if i mod 9 = 0 then
        List.iter
          (fun q ->
            let expected = Inst.Oracle.prioritized oracle q ~tau:Float.neg_infinity in
            let got = Enc_pri.query s q ~tau:Float.neg_infinity in
            Alcotest.(check (list int))
              "corner stab" (sorted_ids expected) (sorted_ids got))
          [ (r.R.x1, r.R.y1); (r.R.x2, r.R.y2); (r.R.x1, r.R.y2) ])
    rects

let test_enc_pri_monitored () =
  let rng = Rng.create 107 in
  (* Rectangles all containing the center. *)
  let rects =
    Array.init 100 (fun i ->
        let margin = 0.4 /. float_of_int (i + 2) in
        R.make ~id:(i + 1) ~x1:margin ~x2:(1. -. margin) ~y1:margin
          ~y2:(1. -. margin)
          ~weight:(float_of_int (i + 1) +. Rng.float rng 0.1)
          ())
  in
  let s = Enc_pri.build rects in
  (match Enc_pri.query_monitored s (0.5, 0.5) ~tau:Float.neg_infinity ~limit:7 with
   | Sigs.Truncated prefix ->
       Alcotest.(check int) "limit+1" 8 (List.length prefix)
   | Sigs.All _ -> Alcotest.fail "expected truncation");
  match Enc_pri.query_monitored s (0.5, 0.5) ~tau:Float.neg_infinity ~limit:100 with
  | Sigs.All all -> Alcotest.(check int) "all" 100 (List.length all)
  | Sigs.Truncated _ -> Alcotest.fail "unexpected truncation"

let test_enc_max_matches_oracle () =
  let rng = Rng.create 109 in
  List.iter
    (fun n ->
      let rects = random_rects rng n in
      let oracle = Inst.Oracle.build rects in
      let m = Enc_max.build rects in
      Array.iter
        (fun q ->
          Alcotest.(check (option int))
            "enc max"
            (Option.map (fun (e : R.t) -> e.R.id) (Inst.Oracle.max oracle q))
            (Option.map (fun (e : R.t) -> e.R.id) (Enc_max.query m q)))
        (random_queries rng 80))
    [ 1; 10; 300 ]

let test_reductions_match_oracle () =
  let rng = Rng.create 113 in
  let n = 400 in
  let rects = random_rects rng n in
  let oracle = Inst.Oracle.build rects in
  let params = Inst.params () in
  let t1 = Inst.Topk_t1.build ~params rects in
  let t2 = Inst.Topk_t2.build ~params rects in
  let rj = Inst.Topk_rj.build rects in
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          let expected = ids (Inst.Oracle.top_k oracle q ~k) in
          Alcotest.(check (list int))
            "t1" expected (ids (Inst.Topk_t1.query t1 q ~k));
          Alcotest.(check (list int))
            "t2" expected (ids (Inst.Topk_t2.query t2 q ~k));
          Alcotest.(check (list int))
            "rj" expected (ids (Inst.Topk_rj.query rj q ~k)))
        [ 1; 4; 33; 128; 1000 ])
    (random_queries rng 25)

(* The paper's motivating query: "the 10 gentlemen with the highest
   salaries whose age/height preferences cover mine". *)
let test_dating_site_shape () =
  let rng = Rng.create 127 in
  let n = 500 in
  let profiles =
    Array.init n (fun i ->
        let age_lo = 18. +. Rng.float rng 30. in
        let height_lo = 150. +. Rng.float rng 30. in
        R.make ~id:(i + 1) ~x1:age_lo ~x2:(age_lo +. 5. +. Rng.float rng 20.)
          ~y1:height_lo
          ~y2:(height_lo +. 5. +. Rng.float rng 30.)
          ~weight:(30_000. +. float_of_int i +. Rng.float rng 0.5)
          ())
  in
  let oracle = Inst.Oracle.build profiles in
  let t2 = Inst.Topk_t2.build ~params:(Inst.params ()) profiles in
  let me = (33., 172.) in
  let got = Inst.Topk_t2.query t2 me ~k:10 in
  Alcotest.(check (list int))
    "top-10 salaries" (ids (Inst.Oracle.top_k oracle me ~k:10)) (ids got);
  (* Results are sorted by decreasing salary. *)
  let weights = List.map (fun (e : R.t) -> e.R.weight) got in
  Alcotest.(check bool) "descending" true
    (List.for_all2 (fun a b -> a >= b)
       (List.filteri (fun i _ -> i < List.length weights - 1) weights)
       (List.tl weights))

let prop_enclosure_agree =
  QCheck.Test.make ~count:25 ~name:"enclosure reductions agree"
    QCheck.(pair (int_bound 10_000) (int_bound 250))
    (fun (seed, raw_n) ->
      let n = max 4 raw_n in
      let rng = Rng.create seed in
      let rects = random_rects rng n in
      let oracle = Inst.Oracle.build rects in
      let t2 = Inst.Topk_t2.build ~params:(Inst.params ()) rects in
      let qs = random_queries rng 5 in
      Array.for_all
        (fun q ->
          List.for_all
            (fun k ->
              ids (Inst.Oracle.top_k oracle q ~k)
              = ids (Inst.Topk_t2.query t2 q ~k))
            [ 1; 5; n / 2 ])
        qs)

(* --- Xtree equivalence with the list-based build --- *)

(* Xtree's build before the shared canonical walk: each rectangle is
   consed onto its canonical nodes in input order, so [make_node] sees
   every node's rectangles in reverse input order. *)
let reference_xtree_paths rects probes =
  let module Slabs = Topk_interval.Slabs in
  let slabs =
    Slabs.of_endpoints
      (Array.append
         (Array.map (fun (r : R.t) -> r.R.x1) rects)
         (Array.map (fun (r : R.t) -> r.R.x2) rects))
  in
  let rec next_pow2 x k = if k >= x then k else next_pow2 x (2 * k) in
  let leaves = next_pow2 (max 1 (Slabs.slab_count slabs)) 1 in
  let lists = Array.make (2 * leaves) [] in
  Array.iter
    (fun (r : R.t) ->
      let l = Slabs.slab_of_coord slabs r.R.x1 in
      let hi = Slabs.slab_of_coord slabs r.R.x2 in
      let rec go node node_lo node_hi =
        if l <= node_lo && hi >= node_hi - 1 then lists.(node) <- r :: lists.(node)
        else begin
          let mid = (node_lo + node_hi) / 2 in
          if l < mid then go (2 * node) node_lo mid;
          if hi >= mid then go ((2 * node) + 1) mid node_hi
        end
      in
      go 1 0 leaves)
    rects;
  List.map
    (fun x ->
      Topk_em.Stats.measure (fun () ->
          let acc = ref [] in
          let node = ref (leaves + Slabs.slab_of_point slabs x) in
          while !node >= 1 do
            Topk_em.Stats.charge_ios 1;
            if lists.(!node) <> [] then acc := ids lists.(!node) :: !acc;
            node := !node / 2
          done;
          List.rev !acc))
    probes

let prop_xtree_matches_list_build =
  QCheck.Test.make ~count:200 ~name:"xtree equals the list-based build"
    QCheck.(pair (int_bound 100_000) (int_bound 30))
    (fun (seed, raw_n) ->
      let rng = Rng.create seed in
      List.for_all
        (fun n ->
          let coord () = float_of_int (Rng.int rng 6) in
          let rects =
            Array.init n (fun i ->
                let a = coord () and b = coord () in
                R.make ~id:(i + 1) ~x1:(Float.min a b) ~x2:(Float.max a b)
                  ~y1:0. ~y2:1. ~weight:(Rng.uniform rng) ())
          in
          let tree = Topk_enclosure.Xtree.build ~make_node:Fun.id rects in
          let probes = List.init 13 (fun i -> (float_of_int i /. 2.) -. 0.5) in
          List.map
            (fun x ->
              Topk_em.Stats.measure (fun () ->
                  let acc = ref [] in
                  Topk_enclosure.Xtree.visit_path tree x (fun node ->
                      acc := ids (Array.to_list node) :: !acc);
                  List.rev !acc))
            probes
          = reference_xtree_paths rects probes)
        [ 0; 1; raw_n ])

let () =
  Alcotest.run "topk_enclosure"
    [
      ( "rect",
        [
          Alcotest.test_case "basics" `Quick test_rect_basics;
          Alcotest.test_case "projections" `Quick test_projections;
        ] );
      ( "enc_pri",
        [
          Alcotest.test_case "matches oracle" `Quick
            test_enc_pri_matches_oracle;
          Alcotest.test_case "corner queries" `Quick
            test_enc_pri_corner_queries;
          Alcotest.test_case "monitored" `Quick test_enc_pri_monitored;
        ] );
      ( "enc_max",
        [ Alcotest.test_case "matches oracle" `Quick test_enc_max_matches_oracle ] );
      ( "reductions",
        [
          Alcotest.test_case "match oracle" `Slow test_reductions_match_oracle;
          Alcotest.test_case "dating-site query" `Quick test_dating_site_shape;
          QCheck_alcotest.to_alcotest prop_enclosure_agree;
          QCheck_alcotest.to_alcotest prop_xtree_matches_list_build;
        ] );
    ]
