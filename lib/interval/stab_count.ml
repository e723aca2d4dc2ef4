module Stats = Topk_em.Stats
module P = Problem

type t = {
  slabs : Slabs.t;
  counts : int array;  (* per tree node, 1-based heap order *)
  leaves : int;
  n : int;
}

let name = "stab-count"

let build elems =
  let n = Array.length elems in
  let endpoints = Array.make (2 * n) 0. in
  Array.iteri
    (fun i (itv : Interval.t) ->
      endpoints.(2 * i) <- itv.Interval.lo;
      endpoints.((2 * i) + 1) <- itv.Interval.hi)
    elems;
  let slabs = Slabs.of_endpoints endpoints in
  let leaves = Slabs.leaves slabs in
  let counts = Array.make (2 * leaves) 0 in
  Array.iter
    (fun (itv : Interval.t) ->
      Slabs.iter_canonical ~leaves
        (Slabs.slab_of_coord slabs itv.Interval.lo)
        (Slabs.slab_of_coord slabs itv.Interval.hi)
        (fun node -> counts.(node) <- counts.(node) + 1))
    elems;
  { slabs; counts; leaves; n }

let size t = t.n

let space_words t = Slabs.space_words t.slabs + Array.length t.counts

let count t q =
  let s = Slabs.slab_of_point t.slabs q in
  let total = ref 0 in
  let node = ref (t.leaves + s) in
  while !node >= 1 do
    Stats.charge_ios 1;
    total := !total + t.counts.(!node);
    node := !node / 2
  done;
  !total
