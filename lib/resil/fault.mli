(** Deterministic seeded fault injection.

    Each technique (and each {!Parallel.Pool} worker) declares a named
    fault point at module-initialisation time and calls {!point} where
    a crash should be injectable.  Whether a given call fires is a pure
    function of [(seed, context key, attempt, point name, call index)],
    so an injected run is exactly reproducible — the property the CI
    resume job relies on.

    With the rate at 0 (the default) every [point] call is a cheap
    no-op, and outside any {!with_context} scope points never fire, so
    production code paths are unaffected. *)

exception Injected of string
(** Raised by a firing fault point; carries the point name. *)

val declare : string -> string
(** [declare name] registers [name] in the global fault-point registry
    (idempotent) and returns it.  Call once per point, at module init:
    [let fp = Fault.declare "espresso.minimize"]. *)

val registered : unit -> string list
(** All declared point names, sorted — the fault-point registry. *)

val set_rate : float -> unit
(** Global firing probability in [\[0, 1\]].  0 disables injection. *)

val rate : unit -> float

val set_seed : int -> unit
(** Seed mixed into every firing decision. *)

val seed : unit -> int

val set_filter : string list option -> unit
(** Restrict firing to points whose name starts with one of the given
    prefixes (e.g. [Some ["serve."]] batters only the service layer
    while solves underneath run clean).  [None] or [Some []] removes
    the filter — every declared point may fire again. *)

val configure_from_env : unit -> unit
(** Reads [LSML_FAULT_RATE], [LSML_FAULT_SEED], and [LSML_FAULT_POINTS]
    (comma-separated name prefixes for {!set_filter}) if set. *)

val with_context : key:string -> attempt:int -> (unit -> 'a) -> 'a
(** [with_context ~key ~attempt f] runs [f] with fault context
    installed for the current domain.  [key] identifies the task
    (e.g. ["team3/ex07"]); [attempt] salts retries so a retried task
    sees an independent fault pattern.  Restores the previous context
    on exit. *)

val point : string -> unit
(** [point name] raises {!Injected} if the deterministic decision for
    this call fires; otherwise does nothing.  [name] should have been
    {!declare}d. *)
