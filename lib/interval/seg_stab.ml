module Stats = Topk_em.Stats
module P = Problem

type t = {
  slabs : Slabs.t;
  (* Canonical lists, flat: node [i]'s intervals, by decreasing weight,
     are [items.(offsets.(i)) .. items.(offsets.(i + 1) - 1)].  Nodes
     are 1-based heap order; leaf for slab [s] is [leaves + s]. *)
  items : Interval.t array;
  offsets : int array;  (* length [2 * leaves + 1] *)
  leaves : int;
  n : int;
}

let name = "seg-stab"

(* One sort of the input by decreasing weight, then two walks over each
   interval's canonical nodes: the first counts each node's list, the
   second appends in weight order, so every list comes out sorted. *)
let build ?params:_ elems =
  let n = Array.length elems in
  let endpoints = Array.make (2 * n) 0. in
  Array.iteri
    (fun i (itv : Interval.t) ->
      endpoints.(2 * i) <- itv.Interval.lo;
      endpoints.((2 * i) + 1) <- itv.Interval.hi)
    elems;
  let slabs = Slabs.of_endpoints endpoints in
  let leaves = Slabs.leaves slabs in
  let by_weight = Array.copy elems in
  Array.stable_sort (fun a b -> Interval.compare_weight b a) by_weight;
  let ls = Array.make n 0 and rs = Array.make n 0 in
  let offsets = Array.make ((2 * leaves) + 1) 0 in
  Array.iteri
    (fun i (itv : Interval.t) ->
      let l = Slabs.slab_of_coord slabs itv.Interval.lo in
      let r = Slabs.slab_of_coord slabs itv.Interval.hi in
      ls.(i) <- l;
      rs.(i) <- r;
      Slabs.iter_canonical ~leaves l r (fun node ->
          offsets.(node + 1) <- offsets.(node + 1) + 1))
    by_weight;
  for node = 1 to 2 * leaves do
    offsets.(node) <- offsets.(node) + offsets.(node - 1)
  done;
  let total = offsets.(2 * leaves) in
  let items = if total = 0 then [||] else Array.make total by_weight.(0) in
  let next = Array.sub offsets 0 (2 * leaves) in
  Array.iteri
    (fun i itv ->
      Slabs.iter_canonical ~leaves ls.(i) rs.(i) (fun node ->
          items.(next.(node)) <- itv;
          next.(node) <- next.(node) + 1))
    by_weight;
  { slabs; items; offsets; leaves; n }

let size t = t.n

(* Counts one word per node, for its offset. *)
let space_words t =
  Slabs.space_words t.slabs + Array.length t.items + (2 * t.leaves)

(* Visit reportable intervals along the root-to-leaf path of [q]'s
   slab; [f] may raise to stop early. *)
let visit t q ~tau f =
  let s = Slabs.slab_of_point t.slabs q in
  let node = ref (t.leaves + s) in
  while !node >= 1 do
    Stats.charge_ios 1;
    let stop = t.offsets.(!node + 1) in
    let i = ref t.offsets.(!node) in
    while !i < stop && t.items.(!i).Interval.weight >= tau do
      Stats.charge_scan 1;
      f t.items.(!i);
      incr i
    done;
    node := !node / 2
  done

let query t q ~tau =
  let acc = ref [] in
  visit t q ~tau (fun itv -> acc := itv :: !acc);
  !acc

exception Enough

let query_monitored t q ~tau ~limit =
  let acc = ref [] and count = ref 0 in
  match
    visit t q ~tau (fun itv ->
        acc := itv :: !acc;
        incr count;
        if !count > limit then raise Enough)
  with
  | () -> Topk_core.Sigs.All !acc
  | exception Enough -> Topk_core.Sigs.Truncated !acc
