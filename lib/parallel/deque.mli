(** Work-stealing deque over a batch of tasks.

    The deque is filled once, before any worker touches it; afterwards the
    owning worker takes tasks from the bottom with {!pop} while thieves take
    from the top with {!steal}.  Both ends are claimed through a single
    packed atomic, so every task is handed out exactly once no matter how
    pops and steals interleave. *)

type 'a t

val of_array : 'a array -> 'a t
(** Deque holding the elements of the array, bottom end last.  The array is
    not copied and must not be mutated afterwards.  Raises
    [Invalid_argument] beyond 2{^24} - 1 elements. *)

val pop : 'a t -> 'a option
(** Claim the task at the bottom end (owner side); [None] when drained. *)

val steal : 'a t -> 'a option
(** Claim the task at the top end (thief side); [None] when drained. *)

val is_empty : 'a t -> bool
