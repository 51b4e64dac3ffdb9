(** Decision trees and fringe models to AIGs (one MUX per decision node). *)

val lit_of_tree :
  Aig.Graph.t -> feature_lit:(int -> Aig.Graph.lit) -> Dtree.Tree.t -> Aig.Graph.lit

val aig_of_tree : num_inputs:int -> Dtree.Tree.t -> Aig.Graph.t
(** Tree features must be plain input indices below [num_inputs]. *)

val aig_of_fringe_model : num_inputs:int -> Dtree.Fringe.model -> Aig.Graph.t
