(** And-Inverter Graphs.

    An AIG is a DAG whose internal nodes are 2-input AND gates and whose
    edges may be complemented.  Literals encode an edge: variable index
    times two, plus one when complemented.  Variable 0 is the constant
    [false], variables [1..num_inputs] are the primary inputs, and
    higher variables are AND nodes in topological order.

    Construction performs structural hashing and local simplification
    (constant folding, [x AND x = x], [x AND NOT x = 0]), so building the
    same subfunction twice yields the same literal. *)

type t
type lit = int

val create : ?size_hint:int -> num_inputs:int -> unit -> t
(** A graph with [num_inputs] primary inputs, no AND nodes, and output
    [const_false].  [size_hint] (expected AND-node count) pre-sizes the
    fan-in arrays and the structural-hashing table so that building a
    graph of that size performs no rehash or array growth. *)

val num_inputs : t -> int

val num_ands : t -> int
(** Number of AND nodes currently allocated (including any that are not
    reachable from the output; see {!Opt.cleanup}). *)

val num_vars : t -> int
(** [1 + num_inputs + num_ands]: total variables including the constant. *)

val const_false : lit
val const_true : lit

val input : t -> int -> lit
(** [input g i] is the literal of primary input [i], 0-based. *)

val lit_not : lit -> lit
val lit_notif : lit -> bool -> lit
(** [lit_notif l c] complements [l] iff [c]. *)

val var_of_lit : lit -> int
val is_complemented : lit -> bool
val lit_of_var : int -> bool -> lit

val is_and_var : t -> int -> bool

val fanins : t -> int -> lit * lit
(** Fan-in literals of an AND variable.  Raises [Invalid_argument] for
    inputs or the constant. *)

val and_ : t -> lit -> lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val xnor_ : t -> lit -> lit -> lit
val mux : t -> sel:lit -> t1:lit -> t0:lit -> lit
(** [mux g ~sel ~t1 ~t0] is [if sel then t1 else t0]. *)

val and_list : t -> lit list -> lit
(** Balanced conjunction; [and_list g [] = const_true]. *)

val or_list : t -> lit list -> lit
(** Balanced disjunction; [or_list g [] = const_false]. *)

val set_output : t -> lit -> unit
val output : t -> lit

val import : t -> src:t -> lit
(** [import g ~src] copies the logic of [src] reachable from its output
    into [g] (the graphs must have the same number of inputs, which are
    identified index-wise) and returns the literal corresponding to
    [src]'s output. *)

val eval : t -> bool array -> bool
(** Evaluate the output on one input assignment (array length
    [num_inputs]). *)

val levels : t -> int
(** Depth of the output cone: longest AND-node path from any input.
    0 when the output is a constant or an input. *)

val fold_ands : t -> init:'a -> f:('a -> int -> lit -> lit -> 'a) -> 'a
(** Fold over AND variables in topological order:
    [f acc var fanin0 fanin1]. *)

val iter_ands : ?from:int -> t -> (int -> lit -> lit -> unit) -> unit
(** [iter_ands ~from g f] calls [f var fanin0 fanin1] on AND nodes
    [from..num_ands g - 1] (0-based AND index, default 0) in topological
    order.  The graph is append-only, so a caller that remembers
    [num_ands] can later revisit exactly the nodes added since — the basis
    of incremental Tseitin encoding ({!Cec.Session}). *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: inputs, ANDs, levels. *)
