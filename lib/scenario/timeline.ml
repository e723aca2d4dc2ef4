module I = Topk_interval.Interval

(* Newest first: truncation pops the head. *)
type t = { base : I.t array; mutable hist : Ops.op list; mutable len : int }

let create base = { base; hist = []; len = 0 }

let push t op =
  t.hist <- op :: t.hist;
  t.len <- t.len + 1

let length t = t.len

let truncate_to t h =
  while t.len > h do
    t.hist <- List.tl t.hist;
    t.len <- t.len - 1
  done

let live_at t r =
  let tbl = Hashtbl.create (2 * Array.length t.base) in
  Array.iter (fun (e : I.t) -> Hashtbl.replace tbl e.I.id e) t.base;
  List.iteri
    (fun i (op : Ops.op) ->
      if i < r then
        match op with
        | Insert e -> Hashtbl.replace tbl e.I.id e
        | Delete e -> Hashtbl.remove tbl e.I.id)
    (List.rev t.hist);
  tbl

let ids_at t r = List.sort compare (Hashtbl.fold (fun id _ a -> id :: a) (live_at t r) [])
