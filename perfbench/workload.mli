(** The benchmark's workloads and their seeded, program-blind inputs.

    Everything the measured program receives — elements, query points,
    the insert/delete stream — is a pure function of the workload and
    the [--seed]; the generator tracks the live set itself and never
    consults the program. *)

type kind = Static_uniform | Ingest_durable

type op =
  | Query of float  (** stab point *)
  | Insert of Topk_interval.Interval.t
  | Delete of Topk_interval.Interval.t  (** of a live element *)

type spec = {
  name : string;
  kind : kind;
  n : int;  (** base elements *)
  k : int;
  rate : float;  (** open-loop rate, ops/s: a constant, never recomputed *)
  write_frac : float;
  insert_frac : float;  (** of writes; the rest delete a live id *)
}

val static_uniform : spec
val ingest_durable : spec

val all : spec list

val find : string -> spec option

val held_out_seed : int
(** Never used while tuning the benchmark; a later performance claim
    must also hold on it. *)

val data : spec -> seed:int -> Topk_interval.Interval.t array
(** [Gen.Mixed_intervals] with pairwise-distinct weights; ids [1..n]. *)

val query_source : draws:int -> seed:int -> unit -> float
(** A stream of fresh uniform stab points.  [draws] selects the
    stream; {!ops} uses stream 2, so a warm-up or a probe drawn from
    another one never replays the measured ops. *)

val ops :
  spec ->
  seed:int ->
  base:Topk_interval.Interval.t array ->
  count:int ->
  op array
(** The first [count] operations.  A prefix of a longer stream equals
    the shorter stream. *)

val describe : spec -> string
