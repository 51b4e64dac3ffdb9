(** The serve wire protocol: JSON-lines requests and typed responses.

    Every request is one JSON object on one line with an ["op"] field
    naming the operation and an optional ["id"] the server echoes back
    verbatim, so a client may pipeline requests on one connection and
    match responses out of order.  Every response is one JSON object on
    one line with the echoed ["id"] and a ["type"] discriminator:

    - ["result"]     — the operation completed cleanly
    - ["degraded"]   — the per-request budget expired or the handler
                       crashed; the payload is the fallback result
    - ["overloaded"] — admission control rejected the request
    - ["error"]      — malformed or unserviceable request
    - ["status"]     — server status snapshot
    - ["ok"]         — acknowledgement (shutdown)

    Operations: [solve] (train a circuit from inline PLA text),
    [eval] (score an inline AAG against inline PLA), [verify]
    (SAT equivalence of two inline AAGs), [status], [shutdown]. *)

type solve = {
  team : string;  (** solver name, default ["team1"] *)
  train : string;  (** training set, PLA text *)
  valid : string option;  (** validation set; defaults to [train] *)
  deadline_s : float option;  (** per-request wall-clock budget *)
  fuel : int option;  (** deterministic budget ticks *)
  sweep : bool;  (** SAT-sweep the learned circuit *)
  repair : bool;  (** CEGIS repair post-pass on the learned circuit *)
  seed : int;
  trace : bool;  (** capture per-request telemetry spans *)
}

type eval = {
  e_aag : string;  (** circuit, AAG text *)
  e_pla : string;  (** dataset, PLA text *)
  e_deadline_s : float option;
  e_fuel : int option;
  e_trace : bool;
}

type verify = {
  v_a : string;  (** first circuit, AAG text *)
  v_b : string;  (** second circuit, AAG text *)
  v_conflicts : int;  (** total SAT conflict budget, default 100_000 *)
  v_deadline_s : float option;
  v_fuel : int option;
  v_trace : bool;
}

type request =
  | Solve of solve
  | Eval of eval
  | Verify of verify
  | Status
  | Shutdown

type envelope = { id : Json.t;  (** echoed verbatim; [Null] if absent *)
                  req : request }

val parse : string -> (envelope, Json.t * string) result
(** Parse one request line.  [Error (id, msg)] carries whatever id
    could be recovered from the malformed request (so the error
    response can still be matched) and a diagnostic. *)

val response :
  id:Json.t -> typ:string -> ?extra:(string * Json.t) list -> unit -> string
(** One response line (no trailing newline):
    [{"id":<id>,"type":<typ>,<extra...>}]. *)

val solve_cache_fields : solve -> Resil.Fingerprint.field list
(** The canonical fingerprint fields of a solve request: content hashes
    of the training/validation PLA plus every option that can change
    the result.  [Resil.Fingerprint.(hash64 (render ...))] of this list
    is the serve result-cache key — the same combinators the journal
    meta line uses, so the two fingerprint formats cannot drift. *)
