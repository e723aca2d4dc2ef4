module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module G = Topk_repl.Group.Make (Topk_interval.Instances.Topk_t2)
module Svc = Topk_service

type t = {
  g : G.t;
  tl : Timeline.t;
  n : int;
  fail : string -> unit;
  mutable next_id : int;
  mutable deletable : I.t list;
  mutable synced : int list;
  mutable last_synced : int;
}

let create g ~base ~fail =
  let n = Array.length base in
  {
    g;
    tl = Timeline.create base;
    n;
    fail;
    next_id = n + 1;
    deletable = [];
    synced = [];
    last_synced = 0;
  }

let failf t fmt = Printf.ksprintf t.fail fmt

let head t = Timeline.length t.tl

let last_synced t = t.last_synced

let write t rng ~insert_ratio =
  let op : Ops.op =
    if Rng.uniform rng <= insert_ratio || t.deletable = [] then begin
      let e = Ops.interval ~span:Short ~weight:(Distinct 0.5) rng t.next_id in
      t.next_id <- t.next_id + 1;
      t.deletable <- e :: t.deletable;
      Insert e
    end
    else begin
      let i = Rng.int rng (List.length t.deletable) in
      let e = List.nth t.deletable i in
      t.deletable <- List.filteri (fun j _ -> j <> i) t.deletable;
      Delete e
    end
  in
  Timeline.push t.tl op;
  let outcome = match op with Insert e -> G.insert t.g e | Delete e -> G.delete t.g e in
  if G.write_seq outcome <> head t then
    failf t "write got seq %d, issued %d" (G.write_seq outcome) (head t);
  if G.synced outcome then begin
    t.synced <- head t :: t.synced;
    t.last_synced <- head t
  end

let failover t =
  match G.fail_primary t.g with
  | _new_primary ->
      let h = G.head t.g in
      List.iter
        (fun s ->
          if s > h then
            failf t "synced write seq %d lost by failover (promoted head %d)" s h)
        t.synced;
      Timeline.truncate_to t.tl h;
      t.synced <- List.filter (fun s -> s <= h) t.synced;
      t.last_synced <- min t.last_synced h;
      t.deletable <-
        Hashtbl.fold
          (fun id e acc -> if id > t.n then e :: acc else acc)
          (Timeline.live_at t.tl h) [];
      true
  | exception Invalid_argument msg ->
      failf t "failover refused: %s" msg;
      false

let read t ~consistency ~floor q ~k =
  let level = Svc.Consistency.to_string consistency in
  match G.read ~consistency t.g q ~k with
  | None ->
      failf t "read refused (%s)" level;
      None
  | Some resp -> (
      (match resp.Svc.Response.status with
      | Svc.Response.Complete -> ()
      | st -> failf t "read not complete: %s" (Svc.Response.status_string st));
      match Svc.Response.seq_token resp with
      | None ->
          failf t "read lost its seq token";
          None
      | Some tok when tok > head t ->
          failf t
            "read answered at seq %d beyond the surviving timeline %d (a \
             fenced pre-failover answer leaked)"
            tok (head t);
          None
      | Some tok when tok < floor ->
          failf t "stale read: token %d under floor %d (%s)" tok floor level;
          None
      | Some tok ->
          let lives =
            Hashtbl.fold (fun _ e a -> e :: a) (Timeline.live_at t.tl tok) []
          in
          if
            Check.sorted_ids resp.Svc.Response.answers
            <> Check.sorted_ids (Check.top_k lives q ~k)
          then
            failf t "read at seq %d differs from the from-scratch oracle (%s)"
              tok level;
          Some resp)

let converge t ~max_ticks =
  let settled = G.settle ~max_ticks t.g in
  if not settled then failf t "group did not converge";
  let want = Timeline.ids_at t.tl (head t) in
  for i = 0 to G.nodes t.g - 1 do
    if G.alive t.g i && Check.sorted_ids (G.R.live (G.node t.g i)) <> want then
      failf t "node %d's surviving set differs from the oracle" i
  done;
  settled
