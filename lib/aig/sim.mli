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
    The naive oracle for {!Engine.signatures_batch}. *)

val random_patterns : Random.State.t -> num_inputs:int -> num_patterns:int -> Words.t array
(** Fresh uniform input columns for [num_patterns] patterns. *)

val accuracy : Graph.t -> Words.t array -> Words.t -> float
(** [accuracy g columns expected] is the fraction of patterns on which the
    simulated output agrees with [expected]. *)

(** Reusable zero-allocation simulation context: the one fused kernel
    under every candidate evaluation.

    The engine simulates AIGs in cache-blocked tiles.  Each AND node is
    compiled to a flat (dst var, fanin0, fanin1) int triple, and each tile
    of [tile_words] 62-bit words per input column is loaded once into a
    row-per-variable int arena.  Every candidate's AND/ANDNOT/NOR word
    kernels then run over that tile while it is hot.  There is no
    per-node allocation, and no per-tile allocation once the arena has
    grown to the workload's high-water mark.  Results are bit-identical
    to {!simulate_all} and {!accuracy}, which stay as the naive oracle.

    Every call adds (AND nodes x words simulated) to the
    [engine.words_simulated] telemetry counter.

    Engines are single-owner mutable state: use one per domain (see
    {!for_domain}), never share one across domains. *)
module Engine : sig
  type t

  val create : unit -> t

  val for_domain : unit -> t
  (** This domain's engine (domain-local storage): evaluation paths that
      score many candidates reuse one arena per domain without sharing
      mutable state across domains, preserving jobs=1 ≡ jobs=N runs. *)

  val disagreements_batch :
    ?limit:int ->
    ?tile_words:int ->
    ?chunk:int ->
    t ->
    Graph.t array ->
    Words.t array ->
    expected:Words.t ->
    int option array
  (** Score a whole batch of candidate AIGs against shared input columns
      in cache-blocked tiles: each tile of input/expected words is loaded
      into the arena once and stays hot while every candidate's fused
      kernels run over it ([chunk] candidates at a time, default
      {!default_chunk}).  Result [i] is [Some d] with candidate [i]'s
      exact disagreement count, or [None] once its running count exceeded
      [limit] or the best completed count of an earlier chunk — pruning
      requires a {e strictly} greater running count, so the minimum-count
      candidate and every candidate tied with it always come back exact.
      Folding the [Some]s in order therefore picks the same winner as an
      incumbent loop over exact counts, at a fraction of the simulated
      words.  A batch of one with no [limit] is the exact count of a
      single graph.  All graphs must share the column count;
      [tile_words] (default {!default_tile_words}) is the tile width in
      62-bit words.  Allocates nothing per tile at steady state: arena,
      code, and count buffers are engine state reused across calls. *)

  val accuracy_batch :
    ?tile_words:int ->
    t ->
    Graph.t array ->
    Words.t array ->
    expected:Words.t ->
    float array
  (** [disagreements_batch] run as a single chunk (no pruning can fire),
      folded to accuracies: result [i] equals
      [Sim.accuracy graphs.(i) columns expected] bit for bit. *)

  val signatures_batch : ?tile_words:int -> t -> Graph.t -> Words.t array -> Words.t array
  (** Tiled simulation of one graph that returns every variable's value
      vector (index 0 is the constant-false vector, inputs are copies of
      their columns): equals {!Sim.simulate_all} with fresh vectors
      throughout.  Each row is extracted while its tile is hot, so the
      full-width result is written exactly once; used by the SAT
      sweeper's signature refreshes, repair's resubstitution and the
      approximation pass. *)

  val default_tile_words : int
  (** Default tile width of the batched kernels, in 62-bit words; chosen
      by the bench tile-size sweep (see EXPERIMENTS.md). *)

  val default_chunk : int
  (** Default number of candidates scored per tile pass between
      early-exit limit updates. *)
end
