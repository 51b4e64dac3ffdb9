(* The repository benchmark: one command, three workloads.

     main.exe --workload grid|exact|serve --seed N --seconds S --trace 0|1

   Prints a stamp line (machine, seed) and, as the last line of stdout,
   one JSON result: with --trace 0 every end-to-end metric (the same
   names on every workload), with --trace 1 every per-layer metric.
   Every workload checks its outputs; a failed check makes the result
   incorrect and the exit code 1.  perfbench/README.md has the layer
   table and the baseline findings. *)

open Perfbench
open Common
open Workloads

let usage msg =
  Printf.eprintf
    "perfbench: %s\n\
     usage: main.exe --workload grid|exact|serve --seed N --seconds S --trace 0|1\n\
    \       [--lsml PATH] [--nproc N] [--git-rev REV] [--profile P]\n"
    msg;
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through [at_exit] on a termination signal, so a started daemon is
     stopped and reaped. *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  (* A run that has not finished after [watchdog_s] is stuck: give up
     without a result rather than overrun the caller's time limit. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perfbench: watchdog: run did not finish in time";
         exit 3));
  ignore (Unix.alarm watchdog_s);
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let lsml = ref "_build/default/bin/lsml.exe" in
  let nproc = ref (Parallel.Pool.recommended_jobs ()) in
  let git_rev = ref "unknown" and profile = ref "unknown" in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> usage (flag ^ " expects an integer")
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); parse rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg "--seconds" v); parse rest
    | "--trace" :: v :: rest ->
        (trace :=
           match v with "0" -> Some false | "1" -> Some true | _ -> usage "--trace expects 0 or 1");
        parse rest
    | "--lsml" :: v :: rest -> lsml := v; parse rest
    | "--nproc" :: v :: rest -> nproc := int_arg "--nproc" v; parse rest
    | "--git-rev" :: v :: rest -> git_rev := v; parse rest
    | "--profile" :: v :: rest -> profile := v; parse rest
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage "--seed is required" in
  let seconds = match !seconds with Some s when s >= 1 -> s | _ -> usage "--seconds must be >= 1" in
  let trace = match !trace with Some t -> t | None -> usage "--trace is required" in
  let jobs = max 1 !nproc in
  let lg = ledger () in
  let secs = float_of_int seconds in
  let run () =
    match !workload with
    | "grid" -> run_grid ~size:Full ~jobs ~seed ~seconds:secs ~trace lg
    | "exact" -> run_exact ~size:Full ~seed ~seconds:secs ~trace lg
    | "serve" -> run_serve ~size:Full ~lsml:!lsml ~jobs ~seed ~seconds:secs ~trace lg
    | w -> usage (Printf.sprintf "unknown workload %S" w)
  in
  print_endline
    (stamp_line { nproc = !nproc; git_rev = !git_rev; profile = !profile } ~workload:!workload
       ~seed ~seconds ~trace);
  let o = run () in
  List.iter (fun p -> Printf.eprintf "perfbench: check failed: %s\n" p) (List.rev lg.problems);
  let correct = lg.problems = [] && lg.failed = 0 && lg.attempted > 0 in
  let metrics =
    if trace then begin
      (* The untraced figures of this run, for the overhead, go first. *)
      print_endline (result_line ~correct ~attempted:lg.attempted ~failed:lg.failed o.e2e);
      Layers.complete o.layers
    end
    else o.e2e
  in
  print_endline (result_line ~correct ~attempted:lg.attempted ~failed:lg.failed metrics);
  exit (if correct then 0 else 1)
