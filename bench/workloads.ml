module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module Stats = Topk_em.Stats
module Config = Topk_em.Config

let em_model = Config.em ~b:64 ()

let quick = ref false

let sizes l =
  if not !quick then l
  else
    match l with
    | [] -> []
    | [ x ] -> [ x ]
    | x :: rest -> [ x; List.nth rest (List.length rest - 1) ]

let trials n = if !quick then max 10 (n / 10) else n

let intervals ~seed ~shape ~n =
  let rng = Rng.create seed in
  Topk_interval.Interval.of_spans rng (Gen.intervals rng ~shape ~n)

let stab_queries ~seed ~n =
  let rng = Rng.create (seed + 7919) in
  Gen.stab_queries rng ~n

let elem = Topk_scenario.Ops.interval ~span:Wide ~weight:(Distinct 0.4)

let avg_ios f ~runs =
  Config.with_model em_model (fun () ->
      let (), s =
        Stats.measure (fun () ->
            for _ = 1 to runs do
              f ()
            done)
      in
      float_of_int s.Stats.ios /. float_of_int (max 1 runs))

let per_query_ios f queries =
  Config.with_model em_model (fun () ->
      let (), s = Stats.measure (fun () -> Array.iter f queries) in
      float_of_int s.Stats.ios /. float_of_int (max 1 (Array.length queries)))

let measured_q_pri_interval s ~queries =
  per_query_ios
    (fun q -> ignore (Topk_interval.Seg_stab.query s q ~tau:Float.infinity))
    queries

let measured_q_max_interval m ~queries =
  per_query_ios (fun q -> ignore (Topk_interval.Slab_max.query m q)) queries

let calibrate params ~q_pri ~q_max ?(scale = 1.) () =
  {
    params with
    Topk_core.Params.q_pri = (fun _ -> Float.max 1. q_pri);
    q_max = (fun _ -> Float.max 1. q_max);
    coreset_scale = scale;
  }
