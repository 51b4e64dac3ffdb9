(** The ten team solvers of the IWLS 2020 contest, re-implemented on this
    repository's substrates.

    Each solver follows the strategy its team describes in the paper
    (Section IV and the appendix), with hyper-parameter grids reduced to
    keep a full-suite run tractable; the per-team notes below name the
    deviations.  All solvers are deterministic given the benchmark
    instance. *)

val team1 : Solver.t
(** Portfolio: standard-function matching, ESPRESSO (narrow benchmarks),
    LUT networks with a small parameter search, random forests with 5-15
    estimators; node-budget approximation when over 5000 gates. *)

val team2 : Solver.t
(** J48-style decision trees and PART rule sets over a grid of pruning
    strengths; best configuration by validation accuracy (the paper used
    cross-validation statistics). *)

val team3 : Solver.t
(** Three re-splits of the data; per split the best of fringe-DT, plain
    DT and a pruned/LUT-quantized MLP on the top-16 features; 3-model
    vote. *)

val team4 : Solver.t
(** Multi-level feature ranking to 10-12 variables, an MLP function
    approximator per feature group, full subspace expansion of the
    reduced hypercube (synthesized exactly, all pruned inputs don't
    care), accuracy-node joint selection. *)

val team5 : Solver.t
(** DTs/RFs over depth and feature-selection grids, plus an MLP used only
    to rank variables followed by exhaustive small-formula search over
    the top four. *)

val team6 : Solver.t
(** Memorization LUT networks only: 4-input LUTs, both wiring schemes,
    width/depth grid. *)

val team7 : Solver.t
(** Standard-function matching first; otherwise a single unlimited-depth
    DT vs an XGBoost-style ensemble with quantized leaves and a majority
    network, chosen by validation accuracy. *)

val team8 : Solver.t
(** C4.5 with functional decomposition, a 17-tree depth-8 random forest,
    and a sine-activation MLP, best-of by validation accuracy. *)

val team9 : Solver.t
(** CGP: bootstrapped from the better of a DT and espresso seed when that
    seed reaches 55% validation accuracy, random-initialized XAIG search
    with mini-batches otherwise. *)

val team10 : Solver.t
(** A single depth-8 decision tree, retrained on train+validation when
    validation accuracy falls under 70%. *)

val all : Solver.t list
(** All ten, in team order. *)

val find : string -> Solver.t option
(** The team of {!all} with this name (["team1"] .. ["team10"]), if
    any. *)

(** {1 Building blocks}

    Exposed because the experiment drivers (Table IV/V/VI, Figs. 5-7,
    11-12, 21) study these components in isolation. *)

val espresso_candidate : Data.Dataset.t -> (string * Aig.Graph.t) option
(** Best-polarity single-pass espresso, gated to <= 40 inputs. *)

val top_k_features : Data.Dataset.t -> int -> int array
(** Combined mutual-information/chi2 ranking. *)

val lift_aig :
  selection:int array -> num_inputs:int -> Aig.Graph.t -> Aig.Graph.t
(** Remap a model trained on projected features to the full inputs. *)

val mlp_lut_candidate :
  seed:int ->
  train:Data.Dataset.t ->
  valid:Data.Dataset.t ->
  Data.Dataset.t ->
  Aig.Graph.t
(** Team 3's NN pipeline: top-16 features, MLP, pruning, neuron-to-LUT
    synthesis, lifted to the full input space.  The last argument supplies
    the feature ranking (usually train+valid merged). *)

val nn_formula_candidate :
  seed:int -> Data.Dataset.t -> string * Aig.Graph.t
(** Team 5's NN-guided exhaustive formula search over the four inputs
    with the largest first-layer weight mass. *)

val with_repair : ?config:Repair.config -> Solver.t -> Solver.t
(** Wrap a solver with the {!Repair} CEGIS post-pass: after the base
    solve, counterexample-guided repair drives the result toward
    training-set exactness under the 5000-gate budget.  The returned
    solver keeps the base solver's name (journal keys stay stable; the
    journal meta line carries the repair flag instead) and appends
    ["+repair"] to the technique only when the pass removed at least one
    training disagreement.  Training accuracy never decreases and the
    gate budget always holds ({!Repair.repair}'s contract). *)
