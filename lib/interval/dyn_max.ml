module Stats = Topk_em.Stats
module P = Problem

(* One canonical node: its intervals by decreasing weight, and the head
   of the still-alive suffix. *)
type bnode = {
  items : Interval.t array;
  mutable head : int;
}

type bucket = {
  slabs : Slabs.t;
  nodes : bnode array;  (* 1-based heap order *)
  leaves : int;
  elems : Interval.t array;  (* what the bucket was built from *)
}

type t = {
  mutable buckets : bucket option array;
  dead : (int, unit) Hashtbl.t;
  mutable live_count : int;
  mutable rebuild_count : int;
}

let name = "dyn-slab-max"

let build_bucket elems =
  let n = Array.length elems in
  let endpoints = Array.make (2 * n) 0. in
  Array.iteri
    (fun i (itv : Interval.t) ->
      endpoints.(2 * i) <- itv.Interval.lo;
      endpoints.((2 * i) + 1) <- itv.Interval.hi)
    elems;
  let slabs = Slabs.of_endpoints endpoints in
  let leaves = Slabs.leaves slabs in
  (* Consing from the lightest interval up leaves every node's list
     heaviest first, with no per-node sort. *)
  let by_weight = Array.copy elems in
  Array.stable_sort Interval.compare_weight by_weight;
  let lists = Array.make (2 * leaves) [] in
  Array.iter
    (fun (itv : Interval.t) ->
      Slabs.iter_canonical ~leaves
        (Slabs.slab_of_coord slabs itv.Interval.lo)
        (Slabs.slab_of_coord slabs itv.Interval.hi)
        (fun node -> lists.(node) <- itv :: lists.(node)))
    by_weight;
  let nodes = Array.map (fun l -> { items = Array.of_list l; head = 0 }) lists in
  { slabs; nodes; leaves; elems }

let empty () =
  {
    buckets = Array.make 1 None;
    dead = Hashtbl.create 64;
    live_count = 0;
    rebuild_count = 0;
  }

let is_dead t (itv : Interval.t) = Hashtbl.mem t.dead itv.Interval.id

let fill t elems =
  let n = Array.length elems in
  let slots = ref 1 in
  while 1 lsl !slots <= n do incr slots done;
  t.buckets <- Array.make (max 1 !slots) None;
  let offset = ref 0 in
  for i = !slots - 1 downto 0 do
    let cap = 1 lsl i in
    if n - !offset >= cap then begin
      t.buckets.(i) <- Some (build_bucket (Array.sub elems !offset cap));
      offset := !offset + cap
    end
  done

let build ?params:_ elems =
  let t = empty () in
  t.live_count <- Array.length elems;
  fill t (Array.copy elems);
  t

let live_elements t =
  let acc = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some b ->
          Array.iter
            (fun e -> if not (is_dead t e) then acc := e :: !acc)
            b.elems)
    t.buckets;
  Array.of_list !acc

let global_rebuild t =
  let elems = live_elements t in
  Hashtbl.reset t.dead;
  t.rebuild_count <- t.rebuild_count + 1;
  t.live_count <- Array.length elems;
  fill t elems

let insert_fresh t itv =
  let slot = ref 0 in
  let n_slots = Array.length t.buckets in
  while !slot < n_slots && t.buckets.(!slot) <> None do incr slot done;
  if !slot >= n_slots then begin
    let grown = Array.make (n_slots + 1) None in
    Array.blit t.buckets 0 grown 0 n_slots;
    t.buckets <- grown
  end;
  let merged = ref [ itv ] in
  for i = 0 to !slot - 1 do
    (match t.buckets.(i) with
     | Some b ->
         Array.iter
           (fun x ->
             if is_dead t x then Hashtbl.remove t.dead x.Interval.id
             else merged := x :: !merged)
           b.elems
     | None -> ());
    t.buckets.(i) <- None
  done;
  t.buckets.(!slot) <- Some (build_bucket (Array.of_list !merged));
  t.live_count <- t.live_count + 1

let insert t itv =
  if Hashtbl.mem t.dead itv.Interval.id then begin
    (* Re-insert of a tombstoned id: the stale copy is still baked into
       some bucket, so merely dropping the tombstone would resurrect it
       alongside the new element.  Rebuild from the surviving set
       (which excludes the stale copy) plus [itv]. *)
    let merged = Array.append (live_elements t) [| itv |] in
    Hashtbl.reset t.dead;
    t.rebuild_count <- t.rebuild_count + 1;
    t.live_count <- Array.length merged;
    fill t merged
  end
  else insert_fresh t itv

let delete t itv =
  if not (Hashtbl.mem t.dead itv.Interval.id) then begin
    Hashtbl.replace t.dead itv.Interval.id ();
    t.live_count <- t.live_count - 1;
    if Hashtbl.length t.dead > max 8 t.live_count then global_rebuild t
  end

let size t = t.live_count

let live t = t.live_count

let rebuilds t = t.rebuild_count

let space_words t =
  Array.fold_left
    (fun acc -> function
      | None -> acc
      | Some b ->
          acc + Slabs.space_words b.slabs + Array.length b.elems
          + Array.fold_left
              (fun a (n : bnode) -> a + Array.length n.items + 1)
              0 b.nodes)
    0 t.buckets
  + Hashtbl.length t.dead

(* First live interval of a node, advancing the head past tombstones
   (each advance is paid for by one deletion, once). *)
let peek t (node : bnode) =
  let len = Array.length node.items in
  while node.head < len && is_dead t node.items.(node.head) do
    node.head <- node.head + 1
  done;
  if node.head < len then Some node.items.(node.head) else None

let bucket_max t b q =
  let s = Slabs.slab_of_point b.slabs q in
  let best = ref None in
  let node = ref (b.leaves + s) in
  while !node >= 1 do
    Stats.charge_ios 1;
    (match peek t b.nodes.(!node) with
     | None -> ()
     | Some itv -> (
         match !best with
         | None -> best := Some itv
         | Some b' -> if Interval.compare_weight itv b' > 0 then best := Some itv));
    node := !node / 2
  done;
  !best

let query t q =
  let best = ref None in
  Array.iter
    (function
      | None -> ()
      | Some b -> (
          match bucket_max t b q with
          | None -> ()
          | Some itv -> (
              match !best with
              | None -> best := Some itv
              | Some b' ->
                  if Interval.compare_weight itv b' > 0 then best := Some itv)))
    t.buckets;
  !best
