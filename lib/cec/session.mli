(** One incremental AIG→SAT session: the only Tseitin encoder of the repo.

    A session tracks one append-only {!Aig.Graph.t} and one
    {!Sat.Solver.t}.  Creating it allocates a SAT variable per primary
    input (in input order) and encodes every AND node present, three
    clauses per node, in graph order; {!sync} later encodes exactly the
    AND nodes appended since (the watermark), so a graph that keeps
    growing never re-encodes what the solver already knows and learned
    clauses survive across queries.  Sweeping, equivalence checking and
    CEGIS repair all run on it.

    Queries are scoped by {e selectors}: a fresh variable [t] guards the
    query's clauses, the query is solved under the assumption [t], and
    the selector is retired with the unit [not t], after which its
    clauses are satisfied forever and the clause set is back where it was
    (plus whatever was learned).

    Every query draws on one conflict budget shared by the whole session:
    a query's own limit is capped by what is left, and once the budget is
    spent queries answer [Unknown] without searching.  The budget is a
    total, so it bounds the worst case of everything done on the
    session; only the last query can overrun it, by the few conflicts the
    solver may take past a limit before it next checks it.  Deadlines
    still interrupt through the solver's {!Resil.Budget.check}. *)

type t

val create : ?conflict_budget:int -> Aig.Graph.t -> t
(** A fresh solver over [g], with every node of [g] encoded.
    [conflict_budget] is the total number of conflicts all queries may
    spend (default: unlimited). *)

val graph : t -> Aig.Graph.t

val sync : t -> unit
(** Encode the AND nodes appended to the graph since the last sync. *)

val lit : t -> Aig.Graph.lit -> Sat.Solver.lit
(** The SAT literal of a graph literal.  Raises [Invalid_argument] for a
    constant (callers fold those before asking the solver) or a node not
    yet encoded (call {!sync} first). *)

val add_clause : t -> Sat.Solver.lit list -> unit

val selector : t -> Sat.Solver.lit
(** A fresh selector literal: guard clauses with its negation and pass it
    as an assumption to {!solve}. *)

val retire : t -> Sat.Solver.lit -> unit
(** Retire a selector for good (adds its negation as a unit). *)

val solve :
  ?assumptions:Sat.Solver.lit list -> conflict_limit:int -> t -> Sat.Solver.result
(** One query, limited to [conflict_limit] conflicts and to what is left
    of the session budget, whichever is smaller.  [Unknown] without a
    search once the budget is spent. *)

val remaining : t -> int
(** Conflicts left in the session budget ([max_int] when unlimited). *)

val counterexample : t -> bool array
(** The primary-input values of the last [Sat] answer. *)

val value : t -> Aig.Graph.lit -> bool
(** The value of an encoded, non-constant graph literal in the last [Sat]
    answer: every node is encoded with both directions of its AND, so it
    is the literal's value on {!counterexample}. *)

val assert_equal : t -> Aig.Graph.lit -> Aig.Graph.lit -> unit
(** Add the clauses of a known equality between two encoded graph
    literals; the first may be a constant. *)

val prove_equal :
  t -> conflict_limit:int -> Aig.Graph.lit -> Aig.Graph.lit ->
  [ `Equal | `Differ | `Unknown ]
(** Are two encoded graph literals equal as functions?  The first may be
    a constant.  [`Equal] is asserted into the solver (a unit for a
    constant, two binary clauses for a pair), so later queries get the
    equality for free; after [`Differ], {!counterexample} is an input on
    which they differ. *)

val stats : t -> Sat.Solver.stats
(** The solver's effort over every query of the session. *)
