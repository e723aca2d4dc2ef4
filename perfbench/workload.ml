module I = Topk_interval.Interval
module Rng = Topk_util.Rng
module Gen = Topk_util.Gen

type kind = Static_uniform | Ingest_durable

type op = Query of float | Insert of I.t | Delete of I.t

type spec = {
  name : string;
  kind : kind;
  n : int;
  k : int;
  rate : float;
  write_frac : float;
  insert_frac : float;
}

let static_uniform =
  {
    name = "static_uniform";
    kind = Static_uniform;
    n = 50_000;
    k = 10;
    rate = 650.;
    write_frac = 0.;
    insert_frac = 0.;
  }

let ingest_durable =
  {
    static_uniform with
    name = "ingest_durable";
    kind = Ingest_durable;
    n = 20_000;
    rate = 200.;
    write_frac = 0.9;
    insert_frac = 0.7;
  }

let all = [ static_uniform; ingest_durable ]

let find name = List.find_opt (fun s -> s.name = name) all

let held_out_seed = 1_000_003

(* Independent streams per purpose, so that (say) lengthening the op
   stream never changes the data. *)
let stream ~seed tag = Rng.create ((seed * 1_000_003) + tag)

let data spec ~seed =
  let rng = stream ~seed 1 in
  I.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n:spec.n)

let query_source ~draws ~seed =
  let rng = stream ~seed draws in
  fun () -> Rng.uniform rng

let ops spec ~seed ~base ~count =
  let next_query = query_source ~draws:2 ~seed in
  let mrng = stream ~seed 4 and wrng = stream ~seed 5 in
  let n = Array.length base in
  (* The live set as a dense array (O(1) uniform pick and swap-remove). *)
  let live = Array.make (n + count) base.(0) in
  Array.blit base 0 live 0 n;
  let nlive = ref n in
  let next_id = ref (n + 1) in
  let spans = ref [||] and span_i = ref 0 in
  let fresh () =
    if !span_i >= Array.length !spans then begin
      spans := Gen.intervals wrng ~shape:Gen.Mixed_intervals ~n;
      span_i := 0
    end;
    let lo, hi = !spans.(!span_i) in
    incr span_i;
    let id = !next_id in
    incr next_id;
    (* Weights above every base weight (those are below n + 1) and
       increasing in id: pairwise distinct by construction. *)
    I.make ~id ~lo ~hi
      ~weight:(float_of_int (n + id) +. Rng.float wrng 0.5)
      ()
  in
  Array.init count (fun _ ->
      if spec.write_frac > 0. && Rng.uniform mrng < spec.write_frac then
        if Rng.uniform wrng < spec.insert_frac || !nlive = 0 then begin
          let e = fresh () in
          live.(!nlive) <- e;
          incr nlive;
          Insert e
        end
        else begin
          let j = Rng.int wrng !nlive in
          let e = live.(j) in
          decr nlive;
          live.(j) <- live.(!nlive);
          Delete e
        end
      else Query (next_query ()))

let describe spec =
  let mix =
    if spec.write_frac = 0. then "100% reads"
    else
      Printf.sprintf "%.0f%% writes (%.0f%% insert / %.0f%% delete), %.0f%% reads"
        (100. *. spec.write_frac)
        (100. *. spec.insert_frac)
        (100. *. (1. -. spec.insert_frac))
        (100. *. (1. -. spec.write_frac))
  in
  Printf.sprintf "%s: n=%d k=%d rate=%.0f ops/s mix=[%s] uniform points"
    spec.name spec.n spec.k spec.rate mix
