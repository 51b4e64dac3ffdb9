(** Packed bit sets over a fixed universe of [length] elements.

    Used throughout for bit-parallel work: one bit per data sample (dataset
    columns, subset masks during tree training) and one bit per simulation
    pattern (AIG simulation).  Bits are stored 62 per native word; all
    binary operations require equal lengths.  Mutable. *)

type t

val bits_per_word : int

val num_words : int -> int
(** [num_words n] is the number of backing words a set of [n] bits
    occupies — the row stride of flat word arenas ({!Aig.Sim.Engine}). *)

val create : int -> t
(** [create n] is an all-zero set over [n] elements. *)

val length : t -> int
val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val fill : t -> bool -> unit
(** Set all bits. *)

val popcount : t -> int

val popcount_word : int -> int
(** Population count of one raw backing word (any [int]); the primitive
    behind {!popcount}, exposed for fused kernels that count bits straight
    out of a word arena without materialising a [t]. *)

val word : t -> int -> int
(** [word t i] is backing word [i] (62 packed bits).  Raises if [i] is out
    of range of the backing array. *)

val unsafe_word : t -> int -> int
(** [word] without the bounds check.  For fused arena kernels that stream
    input columns tile by tile ({!Aig.Sim.Engine}); the caller guarantees
    [0 <= i < num_words (length t)]. *)

val set_word : t -> int -> int -> unit
(** [set_word t i w] stores backing word [i].  Bits beyond [length t] in
    the top word are cleared, so sets assembled word by word keep the
    normalization invariant that {!equal}, {!hash} and {!popcount} rely
    on. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order: by length, then lexicographically on the packed words.
    Lets bit sets key ordered containers. *)

val hash : t -> int
(** Content hash consistent with {!equal}; keys hash tables of simulation
    signatures (e.g. SAT-sweeping equivalence classes). *)

val and_into : dst:t -> t -> t -> unit
(** [and_into ~dst a b] stores [a AND b] in [dst] (aliasing allowed). *)

val or_into : dst:t -> t -> t -> unit
val xor_into : dst:t -> t -> t -> unit
val andnot_into : dst:t -> t -> t -> unit
(** [andnot_into ~dst a b] stores [a AND NOT b]. *)

val not_into : dst:t -> t -> unit

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val andnot : t -> t -> t
val lognot : t -> t

val count_and : t -> t -> int
(** [count_and a b] is [popcount (logand a b)] without allocating. *)

val count_andnot : t -> t -> int

val iter_set : t -> (int -> unit) -> unit
(** Call the function on every index whose bit is 1, in increasing order. *)

val to_list : t -> int list

val random : Random.State.t -> int -> t
(** Uniform random bits. *)

val init : int -> (int -> bool) -> t
