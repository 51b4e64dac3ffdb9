(** Cooperative cancellation budgets.

    A budget combines a wall-clock deadline with a deterministic fuel
    allowance.  Long-running loops poll {!check}; when either resource
    is exhausted the poll raises {!Timed_out}, which {!Guard} (or any
    caller of {!with_budget}) catches at the technique boundary.

    Budgets are ambient: {!with_budget} installs one in domain-local
    storage, so instrumented library code needs no plumbing.  Nesting
    is supported — the innermost budget wins while its scope is active
    and the outer one is restored afterwards.  [check] outside any
    [with_budget] scope is a no-op, so instrumentation costs nothing
    in unbudgeted runs. *)

exception Timed_out

type t

val create : ?time_limit:float -> ?fuel:int -> unit -> t
(** [create ?time_limit ?fuel ()] makes a budget expiring [time_limit]
    seconds from now and/or after [fuel] calls to {!check}.  Omitted
    resources are unbounded.  Fuel makes tests and CI deterministic;
    wall clock is for real contest runs. *)

val with_budget : t -> (unit -> 'a) -> 'a
(** [with_budget b f] runs [f ()] with [b] installed as the ambient
    budget of the current domain, restoring the previous ambient
    budget (if any) when [f] returns or raises. *)

val run : ?time_limit:float -> ?fuel:int -> (unit -> 'a) -> 'a option
(** [run ?time_limit ?fuel f] runs [f ()] under a fresh budget
    ([create ?time_limit ?fuel ()] installed by {!with_budget}):
    [Some v] when it returns [v], [None] when the budget expired.  For
    callers whose fallback on expiry is their own, not a {!Guard}
    retry. *)

val check : unit -> unit
(** Poll point for long-running loops.  Decrements the ambient
    budget's fuel and, every 64th call, compares the wall clock
    against the deadline.  Raises {!Timed_out} when the budget is
    exhausted; does nothing when no budget is installed. *)

val expired : unit -> bool
(** Like {!check} but returns [true] instead of raising, and does not
    consume fuel.  For loops that prefer to exit cleanly. *)
