(** Gradient boosting of shallow regression trees (Team 7's XGBoost).

    Newton boosting on the logistic loss: each round fits a depth-limited
    regression tree to the gradient/hessian statistics, with XGBoost's
    gain formula and L2 leaf regularization.  For synthesis, every leaf
    value is quantized to its sign bit and the per-tree bits are combined
    by a majority network — the 3-layer 5-input-majority approximation
    when the ensemble has exactly 125 trees, an exact majority
    otherwise. *)

type rtree =
  | RLeaf of float
  | RNode of { feature : int; low : rtree; high : rtree }

type params = {
  num_trees : int;
  max_depth : int;
  learning_rate : float;
  lambda : float;  (** L2 regularization on leaf weights *)
  min_child_weight : float;
  colsample : float;
      (** fraction of features drawn (per tree) as split candidates *)
  seed : int;  (** drives column subsampling *)
}

val default_params : params
(** 125 trees of depth 5 (the paper's configuration), lr 0.3,
    lambda 1.0. *)

type t = { params : params; trees : rtree array }

val train : params -> Data.Dataset.t -> t

val predict : t -> bool array -> bool
(** Whether the sum of leaf values (log-odds) is non-negative. *)

val predict_mask : t -> Words.t array -> Words.t

val predict_quantized : t -> bool array -> bool
(** Majority of the per-tree leaf-sign bits: the function the synthesized
    circuit computes. *)

val accuracy : t -> Data.Dataset.t -> float

val to_aig : num_inputs:int -> t -> Aig.Graph.t
(** Circuit of {!predict_quantized}. *)
