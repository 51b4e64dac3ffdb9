exception Injected of string

(* Registry: names only, for docs/tests.  Mutex because techniques may be
   initialised from several domains. *)
let registry : (string, unit) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let declare name =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.replace registry name ());
  name

let registered () =
  let names =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun k () acc -> k :: acc) registry [])
  in
  List.sort compare names

(* Rate is stored as an int in millionths so it fits in an Atomic without
   boxing concerns; exact for the coarse rates used in CI. *)
let rate_ppm = Atomic.make 0
let seed = Atomic.make 0
let set_rate r = Atomic.set rate_ppm (int_of_float (r *. 1e6 +. 0.5))
let rate () = float_of_int (Atomic.get rate_ppm) /. 1e6
let set_seed s = Atomic.set seed s

(* Optional point-name prefix filter: with a filter installed only the
   named subsystems can fire, so a chaos run can batter the serve IO
   paths while every solve underneath stays clean (and cacheable).
   Stored as an immutable list behind an Atomic for lock-free reads on
   the hot path. *)
let filter : string list option Atomic.t = Atomic.make None

let set_filter prefixes =
  Atomic.set filter
    (match prefixes with
    | Some [] | None -> None
    | Some ps -> Some ps)

let prefix_matches name p =
  let np = String.length p in
  String.length name >= np && String.sub name 0 np = p

let filtered_out name =
  match Atomic.get filter with
  | None -> false
  | Some ps -> not (List.exists (prefix_matches name) ps)

let configure_from_env () =
  (match Sys.getenv_opt "LSML_FAULT_RATE" with
  | Some s -> (
      match float_of_string_opt s with Some r -> set_rate r | None -> ())
  | None -> ());
  (match Sys.getenv_opt "LSML_FAULT_SEED" with
  | Some s -> (
      match int_of_string_opt s with Some v -> set_seed v | None -> ())
  | None -> ());
  match Sys.getenv_opt "LSML_FAULT_POINTS" with
  | Some s ->
      let ps =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun p -> p <> "")
      in
      set_filter (Some ps)
  | None -> ()

type context = { ctx_hash : int; mutable calls : int }

let ctx_key : context option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_context ~key ~attempt f =
  let saved = Domain.DLS.get ctx_key in
  let ctx = { ctx_hash = Hashtbl.hash (key, attempt); calls = 0 } in
  Domain.DLS.set ctx_key (Some ctx);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key saved) f

let point name =
  let ppm = Atomic.get rate_ppm in
  if ppm > 0 && not (filtered_out name) then
    match Domain.DLS.get ctx_key with
    | None -> ()
    | Some ctx ->
        ctx.calls <- ctx.calls + 1;
        (* Hashtbl.hash is stable for a given OCaml version, making the
           decision reproducible across runs and domains. *)
        let h =
          Hashtbl.hash (Atomic.get seed, ctx.ctx_hash, name, ctx.calls)
        in
        (* hash is 30-bit non-negative; scale to millionths. *)
        if h mod 1_000_000 < ppm then raise (Injected name)

let seed () = Atomic.get seed
