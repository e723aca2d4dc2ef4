module I = Topk_interval.Interval
module Future = Topk_service.Future
module W = Workload

type sample = {
  op : W.op;
  index : int;  (* position in the op stream *)
  writes_before : int;  (* writes preceding it in the stream *)
  due : float;
  mutable issued : float;
  mutable returned : float;
  mutable finished : float;
  mutable writes_at_finish : int;
  mutable out : Stack.outcome;
  mutable inner : (string * float * float) option;
  mutable queue_depth : int;
}

let is_write = function W.Insert _ | W.Delete _ -> true | W.Query _ -> false
let is_query op = not (is_write op)

let ok s = match s.out with Stack.Failed _ -> false | _ -> true

let latency s = s.finished -. s.due

(* ---- reference answers ---- *)

(* Every element the stream ever holds, heaviest first, with the write
   that inserts it ([born]; 0 for the base) and the write that deletes
   it ([died]; max_int if none).  The answer at write prefix [s] is the
   first [k] elements alive at [s] that match — a scan in weight order
   that needs no replay, so one reference serves every prefix. *)
type reference = {
  by_weight : I.t array;
  born : int array;  (* by id *)
  died : int array;
}

let reference ~base (ops : W.op array) =
  let max_id = ref 0 in
  let note (e : I.t) = max_id := max !max_id e.I.id in
  Array.iter note base;
  Array.iter (function W.Insert e -> note e | _ -> ()) ops;
  let born = Array.make (!max_id + 1) 0
  and died = Array.make (!max_id + 1) max_int in
  let inserted = ref [] and w = ref 0 in
  Array.iter
    (function
      | W.Insert e ->
          incr w;
          born.(e.I.id) <- !w;
          inserted := e :: !inserted
      | W.Delete e ->
          incr w;
          died.(e.I.id) <- !w
      | W.Query _ -> ())
    ops;
  let all = Array.append base (Array.of_list !inserted) in
  Array.sort (fun a b -> I.compare_weight b a) all;
  { by_weight = all; born; died }

let top_k r ~at q ~k =
  let out = Array.make k 0 and n = ref 0 and i = ref 0 in
  let len = Array.length r.by_weight in
  while !n < k && !i < len do
    let e = r.by_weight.(!i) in
    let id = e.I.id in
    if r.born.(id) <= at && at < r.died.(id) && I.contains e q then begin
      out.(!n) <- id;
      incr n
    end;
    incr i
  done;
  Array.sub out 0 !n

(* ---- phases ---- *)

let make_sample ops writes_before i ~due =
  {
    op = ops.(i);
    index = i;
    writes_before = writes_before.(i);
    due;
    issued = 0.;
    returned = 0.;
    finished = 0.;
    writes_at_finish = 0;
    out = Stack.Failed "never completed";
    inner = None;
    queue_depth = 0;
  }

let writes_before ops =
  let w = ref 0 in
  Array.map
    (fun op ->
      let b = !w in
      if is_write op then incr w;
      b)
    ops

(* Issue one op.  A pooled query returns a future filled only after
   its completion has been stamped, so awaiting it orders the stamp
   before any read of the sample; anything else is stamped at once. *)
let issue (st : Stack.t) ~writes ~trace s =
  if is_write s.op then Atomic.incr writes;
  st.Stack.inner := None;
  if trace then s.queue_depth <- Topk_service.Executor.queue_depth st.Stack.pool;
  s.issued <- Clock.now_us ();
  let p = st.Stack.issue s.op in
  s.returned <- Clock.now_us ();
  if trace then s.inner <- !(st.Stack.inner);
  let finish o =
    s.finished <- Clock.now_us ();
    s.writes_at_finish <- Atomic.get writes;
    s.out <- o
  in
  match p with
  | Stack.Done o ->
      finish o;
      None
  | Stack.Pending fut ->
      let stamped = Future.create () in
      Future.on_fill fut (fun r ->
          finish (Stack.of_response r);
          Future.fill stamped ());
      Some stamped

(* Fixed-rate open loop: op [j] is due at [t0 + j / rate] whether or
   not earlier ops have finished; latency runs from the due time. *)
let open_loop st ~ops ~wb ~writes ~trace ~first ~count ~rate =
  let period = 1e6 /. rate in
  let t0 = Clock.now_us () +. 1000. in
  let pending = ref [] in
  let samples =
    Array.init count (fun j ->
        let due = t0 +. (float_of_int j *. period) in
        Clock.sleep_until_us due;
        let s = make_sample ops wb (first + j) ~due in
        Option.iter (fun f -> pending := f :: !pending) (issue st ~writes ~trace s);
        s)
  in
  List.iter Future.await !pending;
  samples

(* Closed loop: at most [outstanding] requests in flight; each
   completion admits the next.  Returns the samples and the start. *)
let closed_loop st ~ops ~wb ~writes ~first ~seconds ~outstanding =
  let inflight = Queue.create () and done_ = ref [] in
  let t0 = Clock.now_us () in
  let t_end = t0 +. (seconds *. 1e6) in
  let i = ref first in
  while Clock.now_us () < t_end && !i < Array.length ops do
    if Queue.length inflight >= outstanding then
      Future.await (Queue.pop inflight);
    let s = make_sample ops wb !i ~due:(Clock.now_us ()) in
    Option.iter (fun f -> Queue.push f inflight) (issue st ~writes ~trace:false s);
    done_ := s :: !done_;
    incr i
  done;
  Queue.iter Future.await inflight;
  (Array.of_list (List.rev !done_), t0)

(* Completed ops per second, as the median over [seconds / window_s]
   consecutive groups of equally many completions (each group's count
   over the time it took): a stall that a single total would average
   in moves one group, not the median. *)
let throughput samples ~t0 ~seconds ~window_s =
  let finished =
    Pct.sorted
      (Array.of_list
         (List.filter_map
            (fun s -> if ok s then Some s.finished else None)
            (Array.to_list samples)))
  in
  let n = Array.length finished in
  let groups = max 1 (min n (int_of_float (seconds /. window_s))) in
  let edge g = if g = 0 then t0 else finished.((g * n / groups) - 1) in
  Pct.median
    (Array.init groups (fun g ->
         let count = ((g + 1) * n / groups) - (g * n / groups) in
         float_of_int count /. ((edge (g + 1) -. edge g) /. 1e6)))

(* ---- correctness ---- *)

type verdict = { checked : int; mismatches : int; errors : string list }

let verify ~reference ~k samples =
  let checked = ref 0 and mismatches = ref 0 and errors = ref [] in
  let err fmt =
    Printf.ksprintf
      (fun m ->
        incr mismatches;
        if !mismatches <= 5 then errors := m :: !errors)
      fmt
  in
  Array.iter
    (fun s ->
      match (s.op, s.out) with
      | W.Query q, Stack.Answer a ->
          incr checked;
          (* The prefixes this answer may legitimately reflect: exactly
             the token when the read reports one (a cache hit), else
             any prefix from the writes issued before it to those
             issued by its completion. *)
          let lo, hi =
            match a.seq with
            | Some tok -> (tok, tok)
            | None -> (s.writes_before, max s.writes_before s.writes_at_finish)
          in
          let rec matches at =
            at <= hi && (top_k reference ~at q ~k = a.ids || matches (at + 1))
          in
          if lo > s.writes_at_finish && a.seq <> None then
            err "op %d answered at seq %d beyond the %d writes issued" s.index lo
              s.writes_at_finish
          else if not (matches lo) then
            err "op %d (q=%.6f) differs from the reference at prefixes %d..%d"
              s.index q lo hi
      | (W.Insert _ | W.Delete _), Stack.Written seq ->
          incr checked;
          if seq <> s.writes_before + 1 then
            err "op %d: write acknowledged as seq %d, expected %d" s.index seq
              (s.writes_before + 1)
      | (W.Insert _ | W.Delete _), Stack.Answer _ | W.Query _, Stack.Written _ ->
          err "op %d: outcome of the wrong kind" s.index
      | _, Stack.Failed _ -> ())
    samples;
  { checked = !checked; mismatches = !mismatches; errors = List.rev !errors }
