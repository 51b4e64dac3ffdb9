(** Run a corpus (or one shard of it) through the contest grid, journal
    the rows, merge shard journals, and print the shared report.

    The sharded pipeline is byte-identity preserving end to end: shard
    journals carry the run fingerprint plus a [shard=k/n] tag,
    {!Resil.Journal.merge} reassembles them into the exact journal an
    unsharded run writes, and {!merge} turns that journal back into the
    exact per-team rows an unsharded run holds in memory — so the merged
    report is byte-identical to the single-process one. *)

type options = {
  teams : Contest.Solver.t list;
  jobs : int;
  progress : bool;
  time_limit : float option;
  fuel : int option;
  repair : bool;  (** apply {!Contest.Teams.with_repair} to every team *)
}

val default_options : options
(** All ten teams, one job, progress on, no budgets, no repair. *)

val journal_meta :
  ?repair:bool ->
  ?time_limit:float ->
  ?fuel:int ->
  teams:Contest.Solver.t list ->
  corpus_meta:string ->
  unit ->
  string
(** Journal fingerprint of a corpus run: the corpus generator meta plus
    teams, budgets, and fault-injection settings. *)

val meta_of_options : options -> Format.t -> string
(** {!journal_meta} of these options over this corpus. *)

val run :
  ?shard:Shard.t ->
  ?journal:Resil.Journal.t ->
  options ->
  Format.t ->
  (string * Contest.Score.metrics list) list
(** Solve the shard's benchmarks (the whole corpus when [shard] is
    omitted) with every team; rows come back in canonical team-then-index
    order.  [journal] checkpoints rows as they complete, exactly as in
    {!Contest.Experiments.run_suite}. *)

val name_of : Format.t -> int -> string

val merge :
  sources:string list ->
  path:string ->
  options ->
  Format.t ->
  ((string * Contest.Score.metrics list) list, string) result
(** Merge per-shard journals into the unsharded journal at [path]
    (validating shard tags and coverage) and reconstruct the rows. *)

val print_report : Format.t -> (string * Contest.Score.metrics list) list -> unit
(** Table III plus the failure summary, resolving names through the
    corpus index. *)
