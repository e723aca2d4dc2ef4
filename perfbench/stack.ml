module I = Topk_interval.Interval
module T2 = Topk_interval.Instances.Topk_t2
module Svc = Topk_service
module Future = Svc.Future
module Response = Svc.Response
module Version = Topk_cache.Version
module DS = Topk_durable.Store.Make (T2)
module W = Workload

type outcome =
  | Answer of { ids : int array; ios : int; hit : bool; seq : int option }
  | Written of int  (** the sequence number acknowledged *)
  | Failed of string

(* What issuing an op gives back: the outcome of a call that completed
   on the calling domain, or the future of a query handed to the pool.
   Only the latter costs the harness a callback. *)
type pending = Done of outcome | Pending of I.t Response.t Future.t

type t = {
  spec : W.spec;
  base : I.t array;
  pool : Svc.Executor.t;
  registry : Svc.Registry.t;
  client : Svc.Client.t;
  store : DS.t option;  (** the durable store, on [ingest_durable] *)
  dir : string option;
  out_dir : string;
  issue : W.op -> pending;
  inner : (string * float * float) option ref;
      (** the latest synchronous layer call: name, start, end *)
}

let ids answers = Array.of_list (List.map (fun (e : I.t) -> e.I.id) answers)

let of_response (r : I.t Response.t) =
  match r.Response.status with
  | Response.Complete ->
      Answer
        {
          ids = ids r.Response.answers;
          ios = (Response.cost r).Topk_em.Stats.ios;
          hit = r.Response.worker = -1;
          seq = r.Response.seq_token;
        }
  | st -> Failed (Response.status_string st)

let query fut =
  match Future.poll fut with
  | Some r -> Done (of_response r)
  | None -> Pending fut

let await = function
  | Done o -> o
  | Pending fut -> of_response (Future.await fut)

(* Time a synchronous call into a layer as this op's inner span. *)
let inner cell name f =
  let t0 = Clock.now_us () in
  let r = f () in
  cell := Some (name, t0, Clock.now_us ());
  r

let guard f = try f () with e -> Done (Failed (Printexc.to_string e))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let create ?(out_dir = "perfbench/out") spec ~seed ~base =
  let pool = Svc.Executor.create ~workers:1 ~seed () in
  let registry = Svc.Registry.create () in
  let metrics = Svc.Executor.metrics pool in
  let client = Svc.Client.create ~metrics () in
  let k = spec.W.k in
  let no_write _ = invalid_arg "write on a read-only workload" in
  let span = ref None in
  let store, dir, issue =
    match spec.W.kind with
    | W.Static_uniform ->
        let t2 = T2.build ~params:(Topk_interval.Instances.params ()) base in
        let h = Svc.Registry.register registry ~name:"static" (module T2) t2 in
        let ch = Svc.Client.attach client (Svc.Client.pooled pool h) in
        let issue = function
          | W.Query q -> query (Svc.Client.query ch q ~k)
          | W.Insert e | W.Delete e -> no_write e
        in
        (None, None, issue)
    | W.Ingest_durable ->
        let dir =
          Filename.concat out_dir
            (Printf.sprintf "store-%d-%d" (Unix.getpid ()) seed)
        in
        (* A killed run with the same pid may have left it behind. *)
        remove_tree dir;
        let store =
          DS.create ~params:(Topk_interval.Instances.params ())
            ~buffer_cap:256 ~pool ~metrics ~mode:(Topk_durable.Store.Async 64)
            ~dir base
        in
        let idx = DS.index store in
        let h = DS.I.register registry ~name:"ingest" idx in
        let ch =
          Svc.Client.attach client
            ~version:(fun () -> Version.make ~term:0 ~seq:(DS.I.last_seq idx))
            (Svc.Client.pooled pool h)
        in
        let write name f e =
          guard (fun () ->
              inner span name (fun () -> f store e);
              Done (Written (DS.I.last_seq idx)))
        in
        let issue = function
          | W.Query q -> query (Svc.Client.query ch q ~k)
          | W.Insert e -> write "store.insert" DS.insert e
          | W.Delete e -> write "store.delete" DS.delete e
        in
        (Some store, Some dir, issue)
  in
  {
    spec;
    base;
    pool;
    registry;
    client;
    store;
    dir;
    out_dir;
    issue = (fun op -> guard (fun () -> issue op));
    inner = span;
  }

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then acc else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir dir)

let shutdown t =
  Option.iter DS.close t.store;
  Svc.Executor.drain t.pool;
  Svc.Executor.shutdown t.pool;
  Option.iter remove_tree t.dir
