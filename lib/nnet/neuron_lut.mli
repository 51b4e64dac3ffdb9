(** Neuron-to-LUT synthesis (Team 3's Fig. 15).

    Every neuron of a pruned MLP becomes a look-up table: its surviving
    Boolean inputs are enumerated, the activation is computed for each
    assignment and rounded to a bit.  The quantized network is then a LUT
    network and synthesizes directly into an AIG.  Enumeration is
    exponential in the fan-in, so networks must be pruned (fan-in <= ~12)
    first. *)

val to_aig : ?max_fanin:int -> num_inputs:int -> Mlp.t -> Aig.Graph.t
(** Raises [Invalid_argument] if any neuron's fan-in exceeds [max_fanin]
    (default 14). *)

val enumerate_to_aig : ?max_inputs:int -> num_inputs:int -> Mlp.t -> Aig.Graph.t
(** Team 8's whole-network variant: enumerate every input assignment of
    the (unpruned, float) network, record the thresholded output, and
    synthesize the full truth table directly.  Exponential in the input
    count, so guarded by [max_inputs] (default 20, the paper's limit). *)
