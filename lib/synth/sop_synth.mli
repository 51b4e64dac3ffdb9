(** Sum-of-products to AIG. *)

val aig_of_cover : ?complemented:bool -> Sop.Cover.t -> Aig.Graph.t
(** Fresh AIG for the cover; with [~complemented:true] the output is the
    cover's complement (used when espresso minimized the off-set). *)
