module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module I = Topk_interval.Interval

type span = Short | Wide

type weight = Distinct of float | Scaled of float

let interval ~span ~weight rng id =
  let lo = Rng.uniform rng in
  let hi =
    match span with
    | Short -> Float.min 1.0 (lo +. 0.02 +. (0.3 *. Rng.uniform rng))
    | Wide -> lo +. Rng.float rng (1. -. lo)
  in
  let weight =
    match weight with
    | Distinct c -> float_of_int id +. Rng.float rng c
    | Scaled c -> c *. Rng.uniform rng
  in
  I.make ~id ~lo ~hi ~weight ()

let mixed rng ~n = I.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)

type op = Insert of I.t | Delete of I.t

module Stream = struct
  type t = {
    rng : Rng.t;
    insert_ratio : float;
    weight : weight;
    live : (int, I.t) Hashtbl.t;
    mutable next_id : int;
  }

  let create ~insert_ratio ~weight rng base =
    let n = Array.length base in
    let live = Hashtbl.create (2 * n) in
    Array.iter (fun (e : I.t) -> Hashtbl.replace live e.I.id e) base;
    { rng; insert_ratio; weight; live; next_id = n + 1 }

  let live s = s.live

  let insert s =
    let e = interval ~span:Short ~weight:s.weight s.rng s.next_id in
    s.next_id <- s.next_id + 1;
    Hashtbl.replace s.live e.I.id e;
    Insert e

  let next s =
    if Rng.uniform s.rng <= s.insert_ratio then insert s
    else
      let rec probe tries =
        if tries = 0 then None
        else
          match Hashtbl.find_opt s.live (1 + Rng.int s.rng (s.next_id - 1)) with
          | Some e -> Some e
          | None -> probe (tries - 1)
      in
      match probe 64 with
      | Some e ->
          Hashtbl.remove s.live e.I.id;
          Delete e
      | None -> insert s
end
