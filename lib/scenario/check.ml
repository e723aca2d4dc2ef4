module I = Topk_interval.Interval

let top_k elems q ~k =
  Topk_util.Select.top_k ~cmp:I.compare_weight k
    (List.filter (fun e -> I.contains e q) elems)

let ids l = List.map (fun (e : I.t) -> e.I.id) l

let sorted_ids l = List.sort compare (ids l)

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(max 0 (int_of_float (ceil (p *. float_of_int (Array.length a))) - 1))

module Tally = struct
  type t = { show : int; mutable count : int }

  let create ~show = { show; count = 0 }

  let flag t msg =
    t.count <- t.count + 1;
    if t.count <= t.show then Printf.printf "  %s\n%!" msg

  let count t = t.count
end
