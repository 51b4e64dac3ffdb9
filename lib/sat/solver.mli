(** A self-contained CDCL SAT solver.

    The engine follows the MiniSat architecture: two-watched-literal unit
    propagation, first-UIP conflict-driven clause learning with local
    clause minimization, activity-based (VSIDS-style) decision ordering,
    Luby-sequence restarts, phase saving, and activity-sorted reduction of
    the learned-clause database.  Solving is incremental: clauses may be
    added between [solve] calls and each call may carry a set of assumption
    literals that hold only for that call.

    Literals encode a variable and a polarity in one int: variable index
    times two, plus one when negated — the same convention as
    {!Aig.Graph.lit}, so circuit code translates without bookkeeping. *)

type t

type lit = int

val lit_of_var : int -> bool -> lit
(** [lit_of_var v negated]. *)

val lit_not : lit -> lit
val var_of_lit : lit -> int
val is_negated : lit -> bool

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable and return its index (0-based). *)

val num_vars : t -> int

val num_clauses : t -> int
(** Problem clauses added so far (after root-level simplification;
    satisfied-at-root clauses are not counted). *)

val add_clause : t -> lit list -> unit
(** Add a clause (a disjunction of literals).  May only be called between
    [solve] calls.  Duplicate literals are merged, tautologies dropped,
    root-level false literals removed; deriving the empty clause marks the
    instance unsatisfiable. *)

val ok : t -> bool
(** [false] once the clause set has been proved unsatisfiable (without
    assumptions); subsequent [solve] calls return [Unsat] immediately. *)

type result = Sat | Unsat | Unknown

val solve : ?assumptions:lit list -> ?conflict_limit:int -> t -> result
(** Decide the current clause set.  [assumptions] are literals that hold
    for this call only; [Unsat] with assumptions means no model extends
    them (the clause set itself may still be satisfiable, see {!ok}).
    [conflict_limit] bounds the number of conflicts explored before giving
    up with [Unknown] (default: unlimited). *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] answer. *)

val model : t -> bool array
(** Copy of the full model after a [Sat] answer. *)

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;  (** learned clauses currently kept *)
}

val stats : t -> stats
