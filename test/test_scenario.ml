(* Tests for the scenario kit the CLI gates and experiments share: the
   live-set update stream, the failover-truncatable timeline, and the
   from-scratch oracle every gate compares against. *)

module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module Ops = Topk_scenario.Ops
module Timeline = Topk_scenario.Timeline
module Check = Topk_scenario.Check
module Oracle = Topk_core.Oracle.Make (Topk_interval.Problem)

let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun id _ a -> id :: a) tbl [])

(* Replay [ops] over [base] with no knowledge of the stream's state. *)
let replay base ops =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun (e : I.t) -> Hashtbl.replace tbl e.I.id ()) base;
  List.iter
    (fun (op : Ops.op) ->
      match op with
      | Insert e -> Hashtbl.replace tbl e.I.id ()
      | Delete e -> Hashtbl.remove tbl e.I.id)
    ops;
  tbl

let test_stream_deletes_only_live () =
  List.iter
    (fun (seed, insert_ratio) ->
      let rng = Rng.create seed in
      let base = Ops.mixed rng ~n:50 in
      let s = Ops.Stream.create ~insert_ratio ~weight:(Scaled 1000.) rng base in
      let live = replay base [] in
      let ops =
        List.init 2000 (fun _ ->
            let op = Ops.Stream.next s in
            (match op with
            | Insert e ->
                if Hashtbl.mem live e.I.id then
                  Alcotest.failf "inserted id %d is already live" e.I.id;
                Hashtbl.replace live e.I.id ()
            | Delete e ->
                if not (Hashtbl.mem live e.I.id) then
                  Alcotest.failf "deleted id %d is not live" e.I.id;
                Hashtbl.remove live e.I.id);
            op)
      in
      Alcotest.(check (list int))
        "live set = replay of the emitted ops"
        (sorted_keys (replay base ops))
        (sorted_keys (Ops.Stream.live s));
      Alcotest.(check bool)
        "the stream deletes" true
        (List.exists (function Ops.Delete _ -> true | Insert _ -> false) ops))
    [ (1, 0.7); (2, 0.3); (3, 0.05) ]

let test_timeline_truncate () =
  let rng = Rng.create 17 in
  let base = Ops.mixed rng ~n:40 in
  let s = Ops.Stream.create ~insert_ratio:0.5 ~weight:(Distinct 0.5) rng base in
  let ops = List.init 300 (fun _ -> Ops.Stream.next s) in
  let tl = Timeline.create base in
  List.iter (Timeline.push tl) ops;
  Alcotest.(check int) "length" 300 (Timeline.length tl);
  List.iter
    (fun h ->
      Timeline.truncate_to tl h;
      Alcotest.(check int) "truncated length" h (Timeline.length tl);
      let first_h = List.filteri (fun i _ -> i < h) ops in
      Alcotest.(check (list int))
        (Printf.sprintf "live_at %d after truncation" h)
        (sorted_keys (replay base first_h))
        (sorted_keys (Timeline.live_at tl h));
      Alcotest.(check (list int)) "ids_at" (sorted_keys (replay base first_h))
        (Timeline.ids_at tl h))
    [ 300; 211; 100; 1; 0 ];
  (* Writes after a truncation extend the surviving prefix. *)
  let extra = List.init 20 (fun _ -> Ops.Stream.next s) in
  List.iter (Timeline.push tl) extra;
  Alcotest.(check (list int)) "push after truncate"
    (sorted_keys (replay base extra))
    (Timeline.ids_at tl 20)

let test_oracle_matches_core () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 300 in
      let elems = Ops.mixed rng ~n in
      let core = Oracle.build elems in
      for _ = 1 to 20 do
        let q = Rng.uniform rng in
        List.iter
          (fun k ->
            Alcotest.(check (list int))
              (Printf.sprintf "n=%d q=%g k=%d" n q k)
              (Check.ids (Oracle.top_k core q ~k))
              (Check.ids (Check.top_k (Array.to_list elems) q ~k)))
          [ 1; 10; n + 5 ]
      done)
    [ 5; 6; 7; 8 ]

let test_percentile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.(check (float 0.)) "median" 3. (Check.percentile 0.5 xs);
  Alcotest.(check (float 0.)) "p99" 5. (Check.percentile 0.99 xs);
  Alcotest.(check (float 0.)) "p0" 1. (Check.percentile 0. xs)

let () =
  Alcotest.run "topk_scenario"
    [
      ( "stream",
        [
          Alcotest.test_case "deletes only live ids" `Quick
            test_stream_deletes_only_live;
        ] );
      ( "timeline",
        [ Alcotest.test_case "truncate then replay" `Quick test_timeline_truncate ] );
      ( "check",
        [
          Alcotest.test_case "oracle = core oracle" `Quick test_oracle_matches_core;
          Alcotest.test_case "percentile" `Quick test_percentile;
        ] );
    ]
