(** SAT-based combinational equivalence checking and sweeping for AIGs.

    Bit-parallel simulation ({!Aig.Sim}) is exact only when the whole
    input space fits in a pattern batch; the contest benchmarks go up to
    200 inputs, so every function-preserving transform in the repo needs a
    proof, not a sample.  This module closes that gap with the classic
    miter construction, checked the FRAIG way (functionally reduced AIGs,
    as in ABC's [cec]): both circuits are imported into one graph
    (structural hashing merges all shared logic for free) and their
    outputs are XOR-ed.  Everything then runs on one incremental
    {!Session}: a first query asks whether the miter output can be 1 with
    a small slice of the budget, which decides small miters outright; if
    it cannot, random simulation classes and bottom-up pairwise SAT merges
    prove the internal equalities of the two sides on the same solver,
    while a strashed rebuild under the proved merges folds everything
    above them for free; a miter output that folds to false is proved.
    Otherwise a final query spends the rest of the budget on the residue.
    [Unsat] is a proof of equivalence; a model is a concrete
    distinguishing input assignment.

    [conflict_limit] is the {e total} number of conflicts one check may
    spend across all its queries, so [Unknown] means the budget is spent
    and the worst case stays bounded (the solver checks a limit only
    between propagations, so a check may end a few conflicts past it).
    Deadlines interrupt through {!Resil.Budget.check} as for any SAT
    call. *)

module Session = Session

type result =
  | Proved
  | Counterexample of bool array
      (** An input assignment on which the two circuits differ. *)
  | Counterexample_at of int * bool array
      (** A distinguishing assignment plus the index of an output pair it
          distinguishes ({!equivalent_multi} localizes the offending cone
          so callers need not re-simulate every output). *)
  | Unknown of string  (** Resource limit hit; the reason says which. *)

val equivalent : ?conflict_limit:int -> Aig.Graph.t -> Aig.Graph.t -> result
(** Are two single-output AIGs over the same inputs equal as Boolean
    functions?  Raises [Invalid_argument] when the input counts differ.
    [conflict_limit] (default 500_000) is the total SAT budget of the
    check before it answers [Unknown]. *)

val equivalent_stats :
  ?conflict_limit:int -> Aig.Graph.t -> Aig.Graph.t -> result * Sat.Solver.stats
(** {!equivalent} plus the SAT effort of the whole check (every query on
    its session).  All-zero stats mean the miter folded to a constant
    during strashing and no SAT call was needed. *)

val equivalent_multi : ?conflict_limit:int -> Aig.Multi.t -> Aig.Multi.t -> result
(** Multi-output equivalence: the miter ORs one XOR per output pair.  A
    distinguishing assignment is returned as [Counterexample_at (i, cex)]
    where [i] is the first output pair (in output order) that differs on
    [cex]; never the bare [Counterexample]. *)

val equivalent_per_output :
  ?conflict_limit:int ->
  Aig.Multi.t ->
  Aig.Multi.t ->
  (result * Sat.Solver.stats) array
(** One equivalence verdict and SAT-effort report per output pair (so
    the repair-hard outputs are visible individually — [lsml verify
    --verbose]).  Every output's miter lives in one strashed import and
    one session, and [conflict_limit] is the total for all of them: each
    output gets its first query in output order, the outputs still open
    share one merge pass, then each gets a residue query.  An output's
    stats are its share of the session's effort: its own queries, plus
    the merge pass for the first output that needed it.  Per-output
    results are [Proved], [Counterexample] or [Unknown]; all-zero stats
    mean that output's miter folded away during strashing. *)

type sweep_stats = {
  nodes_before : int;  (** reachable AND count going in *)
  nodes_after : int;  (** reachable AND count of the swept graph *)
  classes : int;  (** candidate classes in the final simulation partition *)
  sat_calls : int;
  merges : int;  (** node pairs proved equivalent and merged *)
  refinements : int;  (** SAT counterexamples fed back into simulation *)
  unknowns : int;  (** candidate pairs abandoned at the conflict limit *)
}

val sat_sweep :
  ?num_patterns:int ->
  ?conflict_limit:int ->
  ?rounds:int ->
  ?seed:int ->
  Aig.Graph.t ->
  Aig.Graph.t * sweep_stats
(** Simulation-guided SAT sweeping (the fraiging loop of ABC, natively):
    random simulation partitions the nodes into candidate equivalence
    classes (complement pairs detected by canonizing each signature's
    polarity), candidate pairs are discharged oldest-node-first on one
    {!Session} over the whole graph, counterexamples refine
    the partition for the next round, and proven-equivalent nodes are
    merged with the right polarity.  The result computes the same function
    (each merge is a proof) with at most as many reachable AND nodes —
    usually fewer than structural hashing alone can reach, which buys
    node-budget headroom before {!Aig.Approx} has to spend accuracy.

    Defaults: 1024 patterns, 1000 conflicts per candidate pair, at most 8
    refinement rounds, seed 0.  Deterministic in its arguments. *)

val sweep : ?seed:int -> Aig.Graph.t -> Aig.Graph.t
(** [sat_sweep] with defaults, discarding the stats. *)
