(** Corpus generation: {!Benchgen.Families} specs to a {!Format} file and
    back to solver-ready {!Benchgen.Suite.instance}s.

    Everything is deterministic in {!config}: the same config writes a
    byte-identical corpus file, and reading instances back yields exactly
    the datasets that {!Benchgen.Families.instantiate} would sample. *)

type config = {
  count : int;
  seed : int;
  sizes : Benchgen.Suite.sizes;
  families : Benchgen.Families.family list;
  noise_sweep : int list;  (** label-noise permille values, cycled *)
}

val default_config : config
(** 1000 benchmarks, seed 1, 96/48/48 samples, all families, no noise. *)

val meta_of : config -> string
(** Generator fingerprint stored in the corpus header. *)

val specs : config -> Benchgen.Families.spec list
val generate_file : path:string -> config -> unit


val instances : ?shard:Shard.t -> Format.t -> Benchgen.Suite.instance list
(** Load the benchmarks of [shard] (all of them when omitted), in
    ascending corpus order. *)

val parse_families : string -> (Benchgen.Families.family list, string) result
(** Comma list of family names, e.g. ["arith,threshold"]. *)

val parse_noise : string -> (int list, string) result
(** Comma list of permille rates, e.g. ["0,25,100"]. *)
