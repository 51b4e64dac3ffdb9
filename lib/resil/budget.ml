exception Timed_out

type t = {
  deadline : float; (* absolute, Unix.gettimeofday scale; infinity = none *)
  mutable fuel : int; (* remaining check calls; max_int = unbounded *)
  mutable countdown : int; (* checks until the next wall-clock read *)
}

(* Reading the clock on every poll would dominate tight loops (ESPRESSO
   expands cubes millions of times); once per [clock_stride] checks keeps
   the overhead invisible while bounding deadline overshoot. *)
let clock_stride = 64

let create ?time_limit ?fuel () =
  let deadline =
    match time_limit with
    | None -> infinity
    | Some s -> Unix.gettimeofday () +. s
  in
  let fuel = match fuel with None -> max_int | Some f -> max 0 f in
  { deadline; fuel; countdown = clock_stride }

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_budget b f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let run ?time_limit ?fuel f =
  match with_budget (create ?time_limit ?fuel ()) f with
  | v -> Some v
  | exception Timed_out -> None

let check () =
  match Domain.DLS.get key with
  | None -> ()
  | Some b ->
      if b.fuel <> max_int then begin
        if b.fuel <= 0 then raise Timed_out;
        b.fuel <- b.fuel - 1
      end;
      b.countdown <- b.countdown - 1;
      if b.countdown <= 0 then begin
        b.countdown <- clock_stride;
        if Unix.gettimeofday () > b.deadline then raise Timed_out
      end

let expired () =
  match Domain.DLS.get key with
  | None -> false
  | Some b ->
      (b.fuel <> max_int && b.fuel <= 0)
      || (b.deadline < infinity && Unix.gettimeofday () > b.deadline)
