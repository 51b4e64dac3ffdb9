(** CEGIS repair of learned circuits (the Manthan/BFSS direction).

    The contest pipeline trains a candidate circuit and ships it; on the
    benchmarks where models plateau the winner is {e almost} right on the
    training set and the SAT layer is used only to verify and sweep.
    This module uses it generatively: build a specification AIG from the
    training care-set (one minterm per distinct sampled input vector,
    labelled by majority vote), form a strashed miter of candidate vs.
    specification restricted to that care-set, and drive one incremental
    {!Cec.Session} under assumptions to enumerate disagreement
    counterexamples in batches.  The candidate is evaluated at each
    counterexample, and the circuit is patched:

    - {b resubstitution} first — an existing node (either polarity)
      whose simulation signature fixes every counterexample of the batch
      and strictly lowers the training disagreement count becomes the
      new output;
    - {b MUX patch} as fallback — each counterexample contributes a
      care-minterm cube, greedily widened into the don't-care space
      (literals dropped while the cube stays inside the currently-wrong
      sample set), and the union of cubes selects the complemented
      output: [out' = mux(correction, not out, out)], built as an XOR.

    Every patched circuit is re-checked against the 5000-gate contest
    budget (cleanup, then an exact {!Cec.sat_sweep} to claw back
    headroom before giving up).  The loop ends when the miter goes UNSAT
    (the circuit is exact on the care-set), the node budget binds, the
    ambient {!Resil.Budget} expires, or the iteration/SAT limits are
    hit, and returns the best intermediate by (training disagreements,
    gates) — so repair never returns something worse than its
    (normalized) input. *)

type config = {
  seed : int;  (** seeds the budget claw-back sweep *)
  max_iterations : int;  (** CEGIS iterations (one patch batch each) *)
  cex_batch : int;  (** counterexamples enumerated per iteration *)
  conflict_limit : int;  (** SAT conflicts per solve call *)
  gate_budget : int;  (** hard node budget ({!Contest.Solver} uses 5000) *)
  sweep : bool;  (** exact sweep claw-back when a patch busts the budget *)
}

val default_config : config
(** seed 0, 32 iterations, batches of 16, 20_000 conflicts, budget 5000,
    sweep on. *)

(** Why the loop stopped. *)
type stopped =
  | Exact  (** miter UNSAT: the circuit agrees with the care-set spec *)
  | Budget_bound  (** a patch exceeded the gate budget even after sweeping *)
  | Expired  (** the ambient {!Resil.Budget} ran out *)
  | Iteration_limit  (** [max_iterations] batches without UNSAT *)
  | Sat_limit  (** the solver answered Unknown with no model to patch *)

val stopped_to_string : stopped -> string

type stats = {
  iterations : int;  (** CEGIS iterations run *)
  cex_batches : int;  (** enumeration batches (= iterations that solved) *)
  counterexamples : int;  (** total disagreement models enumerated *)
  resub_patches : int;  (** batches fixed by output resubstitution *)
  mux_patches : int;  (** cubes added by MUX patches *)
  sweeps : int;  (** exact sweeps run to claw back node headroom *)
  sat_conflicts : int;  (** total conflicts of the incremental solver *)
  nodes_before : int;  (** reachable AND count of the input circuit *)
  nodes_after : int;  (** reachable AND count of the returned circuit *)
  train_errors_before : int;
      (** training disagreements of the (normalized) input circuit *)
  train_errors_after : int;
      (** training disagreements of the returned circuit *)
  stopped : stopped;
}

val spec_of_dataset : Data.Dataset.t -> Aig.Graph.t
(** The care-set specification as a circuit: OR of one minterm per
    distinct sampled input vector whose majority label is 1 (ties break
    to 0, don't-cares outside the care-set default to 0).  On a dataset
    covering the full input space this is exactly the majority function,
    which is what a repaired-to-[Exact] circuit is {!Cec.Proved}
    equivalent to. *)

val repair :
  ?config:config -> train:Data.Dataset.t -> Aig.Graph.t -> Aig.Graph.t * stats
(** [repair ~train g] returns the repaired circuit and typed stats.
    Raises [Invalid_argument] when [g]'s input count differs from the
    dataset's.  The result always has at most [config.gate_budget]
    reachable AND nodes (an over-budget input is first swept, then
    approximated); for a within-budget input the result's training
    accuracy is at least the input's.  Deterministic in (circuit,
    dataset, config); the ambient {!Resil.Budget} bounds the work
    ([Expired] returns the best intermediate, never raises). *)
