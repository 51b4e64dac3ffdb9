(** Bit-parallel AIG simulation.

    Simulates an AIG on a batch of input patterns in one pass, 62 patterns
    per machine word, using {!Words.t} bit sets (one per variable, one bit
    per pattern). *)

val simulate : Graph.t -> Words.t array -> Words.t
(** [simulate g columns] evaluates [g] on a batch of patterns.
    [columns.(i)] holds the value of primary input [i] across all patterns;
    all columns must have the same length.  The result holds the output
    value for every pattern. *)

val simulate_all : Graph.t -> Words.t array -> Words.t array
(** Like {!simulate} but returns the value vector of every variable
    (indexed by AIG variable; index 0 is the constant-false vector).
    The naive oracle for {!Engine.signatures}. *)

val random_patterns : Random.State.t -> num_inputs:int -> num_patterns:int -> Words.t array
(** Fresh uniform input columns for [num_patterns] patterns. *)

val accuracy : Graph.t -> Words.t array -> Words.t -> float
(** [accuracy g columns expected] is the fraction of patterns on which the
    simulated output agrees with [expected]. *)

(** Reusable zero-allocation simulation context: the one fused kernel
    under every circuit evaluation.

    The engine simulates one AIG per call in cache-blocked tiles.  Each
    AND node is compiled to a flat (dst var, fanin0, fanin1) int triple,
    and each tile of [tile_words] 62-bit words per input column is loaded
    into a row-per-variable int arena, where the graph's AND/ANDNOT/NOR
    word kernels run while it is hot.  There is no per-node allocation,
    and no per-tile allocation once the arena has grown to the workload's
    high-water mark.  Results are bit-identical to {!simulate_all} and
    {!accuracy}, which stay as the naive oracle.  [tile_words] (default
    {!default_tile_words}) is the tile width in 62-bit words; it must be
    at least 1.

    Every call is one [engine.batch] telemetry span, counts one
    [engine.batch_candidates], adds (AND nodes x
    words simulated) to [engine.words_simulated], and counts one
    [engine.batch_early_exits] when it stopped before the last tile.

    Engines are single-owner mutable state: use one per domain (see
    {!for_domain}), never share one across domains. *)
module Engine : sig
  type t

  val create : unit -> t

  val for_domain : unit -> t
  (** This domain's engine (domain-local storage): evaluation paths that
      score many candidates reuse one arena per domain without sharing
      mutable state across domains, preserving jobs=1 ≡ jobs=N runs. *)

  val disagreements :
    ?limit:int ->
    ?tile_words:int ->
    t ->
    Graph.t ->
    Words.t array ->
    expected:Words.t ->
    int option
  (** [Some d] with the exact number of patterns on which the graph's
      output differs from [expected], or [None] once the running count
      after some tile exceeds [limit] (default [max_int]): then the exact
      count exceeds [limit] too, and the remaining tiles are skipped.
      Pruning needs a {e strictly} greater count, so with [limit] set to
      the best count so far, an incumbent loop over a portfolio gets
      every candidate that beats or ties the incumbent back exact and
      picks the same winner as a loop over exact counts.  The column
      count must equal the graph's input count, and every column and
      [expected] must have the same length. *)

  val accuracy :
    ?tile_words:int -> t -> Graph.t -> Words.t array -> expected:Words.t -> float
  (** The fraction of patterns on which the output agrees with
      [expected]: equals [Sim.accuracy g columns expected] bit for
      bit. *)

  val signatures : ?tile_words:int -> t -> Graph.t -> Words.t array -> Words.t array
  (** Every variable's value vector (index 0 is the constant-false
      vector, inputs are copies of their columns): equals
      {!Sim.simulate_all} with fresh vectors throughout.  Each row is
      extracted while its tile is hot, so the full-width result is
      written exactly once; used by the SAT sweeper's signature
      refreshes, repair's resubstitution and the approximation pass. *)

  val default_tile_words : int
  (** Default tile width of the kernel, in 62-bit words; chosen by the
      bench tile-size sweep (see EXPERIMENTS.md). *)
end
