module Stats = Topk_em.Stats
module Slabs = Topk_interval.Slabs

type 'node t = {
  slabs : Slabs.t;
  nodes : 'node option array;  (* 1-based heap order; None when empty *)
  leaves : int;
  n : int;
}

let build ~make_node rects =
  let n = Array.length rects in
  let endpoints = Array.make (2 * n) 0. in
  Array.iteri
    (fun i (r : Rect.t) ->
      endpoints.(2 * i) <- r.Rect.x1;
      endpoints.((2 * i) + 1) <- r.Rect.x2)
    rects;
  let slabs = Slabs.of_endpoints endpoints in
  let leaves = Slabs.leaves slabs in
  (* Consing in input order hands [make_node] each node's rectangles in
     reverse input order. *)
  let lists = Array.make (2 * leaves) [] in
  Array.iter
    (fun (r : Rect.t) ->
      Slabs.iter_canonical ~leaves
        (Slabs.slab_of_coord slabs r.Rect.x1)
        (Slabs.slab_of_coord slabs r.Rect.x2)
        (fun node -> lists.(node) <- r :: lists.(node)))
    rects;
  let nodes =
    Array.map
      (function
        | [] -> None
        | l -> Some (make_node (Array.of_list l)))
      lists
  in
  { slabs; nodes; leaves; n }

let visit_path t x f =
  let s = Slabs.slab_of_point t.slabs x in
  let node = ref (t.leaves + s) in
  while !node >= 1 do
    Stats.charge_ios 1;
    (match t.nodes.(!node) with Some payload -> f payload | None -> ());
    node := !node / 2
  done

let fold t ~init ~f =
  Array.fold_left
    (fun acc -> function Some payload -> f acc payload | None -> acc)
    init t.nodes

let space_words t ~words =
  Slabs.space_words t.slabs + Array.length t.nodes
  + fold t ~init:0 ~f:(fun acc node -> acc + words node)

let size t = t.n
