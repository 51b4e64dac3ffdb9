(** Fringe feature extraction (Team 3, after Pagallo & Haussler).

    A decision tree is trained repeatedly.  After each round, the two
    decision variables closest to each leaf (the leaf's parent and
    grandparent tests) are combined into composite features — conjunctions
    of the observed polarities plus the exclusive-or — and added as new
    feature columns for the next round.  Iteration stops when no new
    feature appears, a feature budget is reached, or a round limit is hit.

    Composite features are described by a small expression tree over base
    feature indices so they can be re-evaluated on unseen data and
    synthesized into circuits. *)

type op = And | Xor

type feature =
  | Base of int
  | Comb of { op : op; neg_a : bool; a : feature; neg_b : bool; b : feature }

val eval_feature : feature -> bool array -> bool
(** Evaluate over base inputs. *)

val feature_column : feature -> Words.t array -> Words.t
(** Bit-parallel evaluation over base columns. *)

type model = { tree : Tree.t; features : feature array }
(** [tree]'s feature indices point into [features]. *)

val predict : model -> bool array -> bool

val predict_mask : model -> Words.t array -> Words.t
(** [columns] are base columns; composite columns are computed on the
    fly. *)

val accuracy : model -> Data.Dataset.t -> float

val train :
  ?rng:Random.State.t ->
  ?max_rounds:int ->
  ?max_features:int ->
  Train.params ->
  Data.Dataset.t ->
  model
(** Defaults: [max_rounds = 8], [max_features] = 3x the base feature
    count. *)
