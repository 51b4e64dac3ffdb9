(* Command-line interface: generate contest benchmarks as PLA files, run a
   team solver on PLA data, and evaluate AAG circuits against PLA data. *)

open Cmdliner

module S = Benchgen.Suite

let teams_of_spec = function
  | None -> Contest.Teams.all
  | Some spec ->
      List.map
        (fun name ->
          match Contest.Teams.find name with
          | Some t -> t
          | None ->
              Printf.eprintf "unknown team %s\n" name;
              exit 2)
        (String.split_on_char ',' spec)

let sizes_of_full full = if full then S.contest_sizes else S.reduced_sizes

(* File-reading commands report malformed inputs as a friendly diagnostic
   and exit code 2 instead of an exception backtrace. *)
let parse_error_exit file line msg =
  Printf.eprintf "lsml: %s:%d: %s\n" file line msg;
  exit 2

let read_pla path =
  try Data.Pla.read_file path
  with Data.Pla.Parse_error { line; msg } -> parse_error_exit path line msg

let read_aag path =
  try Aig.Io.read_file path
  with Aig.Io.Parse_error { line; msg } -> parse_error_exit path line msg

(* Verification accepts single- and multi-output AAG files alike. *)
let read_multi path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Aig.Multi.of_string s
  with
  | Aig.Io.Parse_error { line; msg } -> parse_error_exit path line msg
  | Sys_error msg ->
      Printf.eprintf "lsml: %s\n" msg;
      exit 2

(* Telemetry export helpers shared by solve/suite.  Notices go to stderr:
   report bytes on stdout must be identical with and without telemetry. *)
let write_trace_notice path =
  Telemetry.write_trace path;
  Printf.eprintf "trace written to %s (open in https://ui.perfetto.dev)\n%!"
    path

let write_metrics_notice path =
  Telemetry.write_metrics path;
  Printf.eprintf "metrics written to %s\n%!" path

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "trace.json") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record an instrumentation timeline of the run and write it to \
           $(docv) (default trace.json) in Chrome trace_event JSON; open \
           it in https://ui.perfetto.dev or chrome://tracing.")

(* ---- list ---- *)

let list_cmd =
  let run () =
    Array.iter
      (fun (b : S.benchmark) ->
        Printf.printf "%s  %-10s  %3d inputs  %s\n" b.S.name
          (S.category_name b.S.category)
          b.S.num_inputs b.S.description)
      S.benchmarks
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 100 contest benchmarks.")
    Term.(const run $ const ())

(* ---- generate ---- *)

let id_arg =
  Arg.(required & opt (some int) None & info [ "id" ] ~docv:"N" ~doc:"Benchmark id (0-99).")

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale 6400-sample datasets.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Sampling seed.")

let out_dir_arg =
  Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")

let generate_cmd =
  let run id full seed dir =
    let b = S.benchmark id in
    let inst = S.instantiate ~sizes:(sizes_of_full full) ~seed b in
    let write suffix d =
      let path = Filename.concat dir (Printf.sprintf "%s.%s.pla" b.S.name suffix) in
      Data.Pla.write_file path (Data.Pla.of_dataset d);
      Printf.printf "wrote %s (%d samples)\n" path (Data.Dataset.num_samples d)
    in
    write "train" inst.S.train;
    write "valid" inst.S.valid;
    write "test" inst.S.test
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Sample a benchmark's train/valid/test sets as PLA files.")
    Term.(const run $ id_arg $ full_arg $ seed_arg $ out_dir_arg)

(* ---- solve ---- *)

let team_arg =
  Arg.(
    value
    & opt string "team1"
    & info [ "team" ] ~docv:"TEAM" ~doc:"Solver: team1 .. team10.")

let pla_arg name doc =
  Arg.(required & opt (some file) None & info [ name ] ~docv:"FILE.pla" ~doc)

let sweep_flag =
  Arg.(
    value & flag
    & info [ "sweep" ]
        ~doc:
          "SAT-sweep the learned circuit (exact, function-preserving \
           reduction) before writing it.")

let repair_flag =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:
          "Run the CEGIS repair post-pass: enumerate training samples the \
           learned circuit misclassifies with an incremental SAT miter and \
           patch them (resubstitution, then cube patches), staying under \
           the 5000-gate budget.  Training accuracy never decreases.")

let solve_jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for intra-benchmark parallelism (forest bagging, \
           CGP fitness). The learned circuit is byte-identical for any \
           value; default 1.")

let solve_cmd =
  let run team train valid out sweep trace jobs repair =
    match Contest.Teams.find team with
    | None ->
        Printf.eprintf "unknown team %s\n" team;
        exit 2
    | Some solver ->
        if trace <> None then Telemetry.enable ();
        let train = Data.Pla.to_dataset (read_pla train) in
        let valid = Data.Pla.to_dataset (read_pla valid) in
        (* Wrap the PLA data as an instance; the solver never reads the
           test set, so an empty placeholder is enough. *)
        let placeholder, _ = Data.Dataset.split_at valid 0 in
        let spec =
          {
            S.id = 0;
            name = "user";
            category = S.Logic_cone;
            num_inputs = Data.Dataset.num_inputs train;
            description = "user-supplied PLA";
          }
        in
        let inst = { S.spec; train; valid; test = placeholder } in
        let r =
          (* The ambient pool parallelises within the single benchmark:
             trainers deep in the solver (Bagging.train, Cgp.evolve) pick
             it up via Pool.intra without plumbing. *)
          if jobs > 1 then
            Parallel.Pool.with_pool ~jobs (fun pool ->
                Parallel.Pool.with_intra pool (fun () ->
                    solver.Contest.Solver.solve inst))
          else solver.Contest.Solver.solve inst
        in
        let r =
          if repair then begin
            let aig, st = Repair.repair ~train r.Contest.Solver.aig in
            Printf.printf
              "repair: %s iterations=%d cex=%d resub=%d mux=%d errors \
               %d->%d gates %d->%d\n"
              (Repair.stopped_to_string st.Repair.stopped)
              st.Repair.iterations st.Repair.counterexamples
              st.Repair.resub_patches st.Repair.mux_patches
              st.Repair.train_errors_before st.Repair.train_errors_after
              st.Repair.nodes_before st.Repair.nodes_after;
            let technique =
              if st.Repair.train_errors_after < st.Repair.train_errors_before
              then r.Contest.Solver.technique ^ "+repair"
              else r.Contest.Solver.technique
            in
            { Contest.Solver.aig; technique }
          end
          else r
        in
        let aig = Aig.Opt.cleanup r.Contest.Solver.aig in
        let aig =
          if sweep then
            Contest.Solver.enforce_budget
              ~patterns:(Data.Dataset.columns valid)
              ~sweep:true ~seed:0 aig
          else aig
        in
        Aig.Io.write_file out aig;
        Printf.printf "technique=%s gates=%d levels=%d valid-acc=%.4f -> %s\n"
          r.Contest.Solver.technique (Aig.Graph.num_ands aig)
          (Aig.Graph.levels aig)
          (Contest.Solver.evaluate aig valid)
          out;
        Option.iter write_trace_notice trace
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Learn an AIG from training/validation PLA files with a team solver.")
    Term.(
      const run $ team_arg
      $ pla_arg "train" "Training set (PLA)."
      $ pla_arg "valid" "Validation set (PLA)."
      $ Arg.(value & opt string "out.aag" & info [ "out" ] ~docv:"FILE.aag" ~doc:"Output AIG.")
      $ sweep_flag $ trace_arg $ solve_jobs_arg $ repair_flag)

(* ---- eval ---- *)

let eval_cmd =
  let run aag pla =
    let g = read_aag aag in
    let d = Data.Pla.to_dataset (read_pla pla) in
    let gates = Aig.Graph.num_ands (Aig.Opt.cleanup g) in
    Printf.printf "accuracy=%.4f gates=%d levels=%d\n"
      (Contest.Solver.evaluate g d)
      gates (Aig.Graph.levels g);
    if gates > Contest.Solver.gate_budget then begin
      Printf.eprintf "error: %d gates exceed the contest budget of %d\n" gates
        Contest.Solver.gate_budget;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Evaluate an AAG circuit against a PLA dataset.  Exits non-zero \
          when the circuit exceeds the contest gate budget.")
    Term.(
      const run
      $ Arg.(required & opt (some file) None & info [ "aig" ] ~docv:"FILE.aag" ~doc:"Circuit.")
      $ pla_arg "pla" "Dataset (PLA).")

(* ---- verify ---- *)

let aag_pos n docv doc =
  Arg.(required & pos n (some file) None & info [] ~docv ~doc)

let verify_cmd =
  let cex_bits cex =
    String.init (Array.length cex) (fun i -> if cex.(i) then '1' else '0')
  in
  let print_cex ma mb i cex =
    Printf.printf
      "NOT equivalent: on inputs %s output %d gives %b vs %b\n" (cex_bits cex)
      i
      (Aig.Multi.eval ma cex).(i)
      (Aig.Multi.eval mb cex).(i)
  in
  let run a b limit verbose =
    let ma = read_multi a in
    let mb = read_multi b in
    if
      Aig.Graph.num_inputs ma.Aig.Multi.graph
      <> Aig.Graph.num_inputs mb.Aig.Multi.graph
    then begin
      Printf.eprintf "input counts differ: %s has %d, %s has %d\n" a
        (Aig.Graph.num_inputs ma.Aig.Multi.graph)
        b
        (Aig.Graph.num_inputs mb.Aig.Multi.graph);
      exit 2
    end;
    if Aig.Multi.num_outputs ma <> Aig.Multi.num_outputs mb then begin
      Printf.eprintf "output counts differ: %s has %d, %s has %d\n" a
        (Aig.Multi.num_outputs ma) b (Aig.Multi.num_outputs mb);
      exit 2
    end;
    if verbose then begin
      (* One verdict and effort line per output pair, so the
         repair-hard outputs are visible individually; the overall
         verdict is folded from the per-output results. *)
      let per = Cec.equivalent_per_output ~conflict_limit:limit ma mb in
      Array.iteri
        (fun i ((r : Cec.result), (st : Sat.Solver.stats)) ->
          let verdict =
            match r with
            | Cec.Proved -> "proved"
            | Cec.Counterexample _ | Cec.Counterexample_at _ ->
                "counterexample"
            | Cec.Unknown _ -> "unknown"
          in
          Printf.printf
            "output %d: %s  sat: decisions=%d conflicts=%d propagations=%d \
             restarts=%d learned=%d\n"
            i verdict st.Sat.Solver.decisions st.Sat.Solver.conflicts
            st.Sat.Solver.propagations st.Sat.Solver.restarts
            st.Sat.Solver.learned)
        per;
      let refuted = ref None in
      let unknown = ref None in
      Array.iteri
        (fun i (r, _) ->
          match r with
          | Cec.Counterexample cex | Cec.Counterexample_at (_, cex) ->
              if !refuted = None then refuted := Some (i, cex)
          | Cec.Unknown reason ->
              if !unknown = None then unknown := Some reason
          | Cec.Proved -> ())
        per;
      match (!refuted, !unknown) with
      | Some (i, cex), _ ->
          print_cex ma mb i cex;
          exit 1
      | None, Some reason ->
          Printf.printf "unknown: %s\n" reason;
          exit 2
      | None, None ->
          Printf.printf "equivalent\n";
          exit 0
    end
    else
      match Cec.equivalent_multi ~conflict_limit:limit ma mb with
      | Cec.Proved ->
          Printf.printf "equivalent\n";
          exit 0
      | Cec.Counterexample_at (i, cex) ->
          print_cex ma mb i cex;
          exit 1
      | Cec.Counterexample cex ->
          Printf.printf "NOT equivalent: on inputs %s\n" (cex_bits cex);
          exit 1
      | Cec.Unknown reason ->
          Printf.printf "unknown: %s\n" reason;
          exit 2
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Prove two AAG circuits (single- or multi-output) functionally \
          equivalent with SAT-based combinational equivalence checking, or \
          print a distinguishing input and the output index it \
          distinguishes.  Exits 0 when proved, 1 on a counterexample, 2 \
          otherwise.")
    Term.(
      const run
      $ aag_pos 0 "A.aag" "First circuit."
      $ aag_pos 1 "B.aag" "Second circuit."
      $ Arg.(
          value & opt int 500_000
          & info [ "conflicts" ] ~docv:"N"
              ~doc:"Total SAT conflict budget of the check.")
      $ Arg.(
          value & flag
          & info [ "verbose" ]
              ~doc:
                "Print one SAT effort line per output pair (decisions, \
                 conflicts, propagations, restarts, learned clauses): that \
                 output's share of the one SAT session all outputs are \
                 checked on.  All-zero stats mean structural hashing \
                 settled that output without a SAT call."))

(* ---- sweep ---- *)

let sweep_cmd =
  let run aag out patterns conflicts rounds seed =
    let g = read_aag aag in
    let swept, st =
      Cec.sat_sweep ~num_patterns:patterns ~conflict_limit:conflicts ~rounds
        ~seed g
    in
    Aig.Io.write_file out swept;
    Printf.printf
      "gates %d -> %d (saved %d)  classes=%d sat-calls=%d merges=%d \
       refinements=%d unknowns=%d -> %s\n"
      st.Cec.nodes_before st.Cec.nodes_after
      (st.Cec.nodes_before - st.Cec.nodes_after)
      st.Cec.classes st.Cec.sat_calls st.Cec.merges st.Cec.refinements
      st.Cec.unknowns out
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "SAT-sweep an AAG circuit: merge simulation-identified, \
          SAT-proven-equivalent nodes.  Exact (the function is preserved).")
    Term.(
      const run
      $ Arg.(
          required
          & opt (some file) None
          & info [ "aig" ] ~docv:"FILE.aag" ~doc:"Circuit.")
      $ Arg.(
          value & opt string "swept.aag"
          & info [ "out" ] ~docv:"FILE.aag" ~doc:"Output AIG.")
      $ Arg.(
          value & opt int 1024
          & info [ "patterns" ] ~docv:"N" ~doc:"Random simulation patterns.")
      $ Arg.(
          value & opt int 1000
          & info [ "conflicts" ] ~docv:"N"
              ~doc:"SAT conflict limit per candidate pair.")
      $ Arg.(
          value & opt int 8
          & info [ "rounds" ] ~docv:"N" ~doc:"Refinement rounds.")
      $ seed_arg)

(* ---- stats ---- *)

let stats_cmd =
  let run aag do_balance =
    let g = read_aag aag in
    let g = Aig.Opt.cleanup g in
    Printf.printf "inputs=%d gates=%d levels=%d\n" (Aig.Graph.num_inputs g)
      (Aig.Graph.num_ands g) (Aig.Graph.levels g);
    if do_balance then begin
      let b = Aig.Opt.balance g in
      Printf.printf "balanced: gates=%d levels=%d\n" (Aig.Graph.num_ands b)
        (Aig.Graph.levels b)
    end
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print AIG statistics for an AAG file.")
    Term.(
      const run
      $ Arg.(required & opt (some file) None & info [ "aig" ] ~docv:"FILE.aag" ~doc:"Circuit.")
      $ Arg.(value & flag & info [ "balance" ] ~doc:"Also report the level-balanced size/depth."))

(* ---- pareto ---- *)

let pareto_cmd =
  let run id full seed =
    let b = S.benchmark id in
    let inst = S.instantiate ~sizes:(sizes_of_full full) ~seed b in
    let train = inst.S.train in
    let num_inputs = b.S.num_inputs in
    let rng = Random.State.make [| seed |] in
    let candidates =
      [ ( "dt8",
          Synth.Tree_synth.aig_of_tree ~num_inputs
            (Dtree.Train.train
               { Dtree.Train.default_params with Dtree.Train.max_depth = Some 8 }
               train) );
        ( "forest",
          Forest.Bagging.to_aig ~num_inputs
            (Forest.Bagging.train ~rng Forest.Bagging.default_params train) );
        ("lutnet", Lutnet.to_aig (Lutnet.train Lutnet.default_params train)) ]
    in
    let front = Contest.Solver.pareto_front ~valid:inst.S.valid ~seed candidates in
    Printf.printf "%8s  %10s  %10s  %s\n" "gates" "valid acc" "test acc" "source";
    List.iter
      (fun (p : Contest.Solver.pareto_point) ->
        Printf.printf "%8d  %10.4f  %10.4f  %s\n" p.Contest.Solver.gates
          p.Contest.Solver.accuracy
          (Contest.Solver.evaluate p.Contest.Solver.circuit inst.S.test)
          p.Contest.Solver.source)
      front
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:
         "Print the accuracy/area Pareto front for a benchmark (the paper's \
          proposed trade-off extension).")
    Term.(const run $ id_arg $ full_arg $ seed_arg)

(* ---- suite (parallel contest run) ---- *)

let ids_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (S.parse_ids s) in
  let print ppf ids =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int ids))
  in
  Arg.conv (parse, print)

let ids_arg =
  Arg.(
    value
    & opt (some ids_conv) None
    & info [ "ids" ] ~docv:"SPEC"
        ~doc:"Benchmark ids, e.g. 0-9,30,74 (default: all 100).")

let jobs_arg =
  Arg.(
    value
    & opt int (Parallel.Pool.recommended_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains the suite run fans out over (default: the \
           recommended domain count). Results are identical for any value.")

let teams_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "teams" ] ~docv:"LIST"
        ~doc:"Comma-separated team subset, e.g. team1,team7 (default: all).")

let time_limit_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-limit" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per solver attempt.  A technique that \
           exceeds it is cancelled and its row falls back to the \
           constant function instead of stalling the suite.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"TICKS"
        ~doc:
          "Deterministic work budget per solver attempt (budget ticks, \
           not seconds).  Unlike $(b,--time-limit), fuel exhaustion is \
           reproducible across machines and runs.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Checkpoint completed (team, benchmark) rows to $(docv) as the \
           run progresses, so an interrupted run can be resumed with \
           $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay rows already recorded in the $(b,--journal) file \
           instead of re-running them.  The journal's configuration \
           fingerprint must match this invocation's.")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "metrics.prom") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write run counters and histograms (SAT, engine, pool, espresso, \
           guard, GC) to $(docv) (default metrics.prom) in Prometheus text \
           format.")

let fail_degraded_arg =
  Arg.(
    value & flag
    & info [ "fail-degraded" ]
        ~doc:
          "Exit 1 when any (team, benchmark) row timed out, crashed, or \
           fell back to the constant function — a CI gate on top of the \
           always-printed failure summary.")

(* The --fail-degraded CI gate, shared by suite and corpus run. *)
let check_degraded fail_degraded per_team =
  let degraded = Contest.Experiments.degraded_rows per_team in
  if fail_degraded && degraded <> [] then begin
    Printf.eprintf "lsml: %d degraded rows (--fail-degraded)\n"
      (List.length degraded);
    exit 1
  end

let perf_arg =
  Arg.(
    value & flag
    & info [ "perf" ]
        ~doc:
          "Print a per-phase GC section after the report: wall time, \
           minor/major collections, and peak heap words per suite phase.")

(* The --perf GC section, built from the "phase" spans run_suite records:
   each carries its GC deltas (via Gc.quick_stat) as span args. *)
let print_gc_section () =
  let phases =
    List.filter
      (fun (s : Telemetry.span_record) -> s.Telemetry.span_cat = "phase")
      (Telemetry.spans ())
  in
  print_endline "\nGC per phase:";
  Printf.printf "  %-18s %10s %10s %8s %16s\n" "phase" "wall (s)" "minor"
    "major" "top heap words";
  List.iter
    (fun (s : Telemetry.span_record) ->
      let arg name =
        match List.assoc_opt name s.Telemetry.span_args with
        | Some (Telemetry.Int i) -> string_of_int i
        | _ -> "-"
      in
      Printf.printf "  %-18s %10.2f %10s %8s %16s\n" s.Telemetry.span_name
        (s.Telemetry.span_dur /. 1e6)
        (arg "gc_minor") (arg "gc_major") (arg "top_heap_words"))
    phases

let suite_cmd =
  let run ids teams full seed jobs time_limit fuel journal resume trace
      metrics perf fail_degraded repair =
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be at least 1\n";
      exit 2
    end;
    if trace <> None || metrics <> None || perf then Telemetry.enable ();
    let teams = teams_of_spec teams in
    Resil.Fault.configure_from_env ();
    let config = Contest.Experiments.config_with ~full ?ids ~seed () in
    let journal =
      match (journal, resume) with
      | None, false -> None
      | None, true ->
          Printf.eprintf "--resume requires --journal FILE\n";
          exit 2
      | Some path, resume -> (
          let meta =
            Contest.Experiments.journal_meta ~repair ?time_limit ?fuel ~teams
              config
          in
          if not resume then begin
            if Sys.file_exists path then begin
              Printf.eprintf
                "journal %s already exists; pass --resume to continue it or \
                 delete it to start over\n"
                path;
              exit 2
            end;
            Some (Resil.Journal.create ~path ~meta ())
          end
          else
            match Resil.Journal.load ~path ~meta () with
            | Ok j -> Some j
            | Error msg ->
                Printf.eprintf "cannot resume from %s: %s\n" path msg;
                exit 2)
    in
    let solve_teams =
      (* Wrapping changes only the solve functions; names (journal keys)
         and grid order are untouched, so resume and jobs=N byte-identity
         carry over to repaired runs. *)
      if repair then List.map (fun t -> Contest.Teams.with_repair t) teams
      else teams
    in
    let run =
      Contest.Experiments.run_suite ~teams:solve_teams ~jobs ?time_limit ?fuel
        ?journal config
    in
    Contest.Experiments.table3 run;
    Contest.Experiments.failure_summary run;
    if perf then print_gc_section ();
    Option.iter write_trace_notice trace;
    Option.iter write_metrics_notice metrics;
    check_degraded fail_degraded run.Contest.Experiments.per_team
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run team solvers over the benchmark suite in parallel and print \
          the Table III summary.  Solver attempts run under optional \
          time/fuel budgets with crash isolation: a failing technique \
          degrades its own row to the constant-function fallback instead \
          of aborting the run.  With $(b,--journal) the run checkpoints \
          after every row and $(b,--resume) continues an interrupted run \
          byte-identically.  $(b,--trace) and $(b,--metrics) record and \
          export an instrumentation timeline and counters; recording off \
          (the default) leaves the report byte-identical.")
    Term.(
      const run $ ids_arg $ teams_arg $ full_arg $ seed_arg $ jobs_arg
      $ time_limit_arg $ fuel_arg $ journal_arg $ resume_arg $ trace_arg
      $ metrics_arg $ perf_arg $ fail_degraded_arg $ repair_flag)

(* ---- run (end to end) ---- *)

let run_cmd =
  let run id team full seed =
    match Contest.Teams.find team with
    | None ->
        Printf.eprintf "unknown team %s\n" team;
        exit 2
    | Some solver ->
        let b = S.benchmark id in
        let inst = S.instantiate ~sizes:(sizes_of_full full) ~seed b in
        let r = solver.Contest.Solver.solve inst in
        let m = Contest.Score.measure inst r in
        Printf.printf
          "%s %s: technique=%s test-acc=%.4f valid-acc=%.4f gates=%d levels=%d\n"
          solver.Contest.Solver.name b.S.name m.Contest.Score.technique
          m.Contest.Score.test_acc m.Contest.Score.valid_acc
          m.Contest.Score.gates m.Contest.Score.levels
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a team solver on a generated benchmark end to end.")
    Term.(const run $ id_arg $ team_arg $ full_arg $ seed_arg)

(* ---- corpus (generated benchmark corpora, sharded runs) ---- *)

let read_corpus path f =
  try Corpus.Format.with_file path f
  with Corpus.Format.Parse_error { offset; msg } ->
    Printf.eprintf "lsml: %s: byte %d: %s\n" path offset msg;
    exit 2

let corpus_pos =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"CORPUS" ~doc:"Corpus file (see $(b,corpus generate)).")

let sizes_conv =
  let parse s =
    match
      List.map int_of_string_opt (String.split_on_char '/' (String.trim s))
    with
    | [ Some t; Some v; Some te ] when t > 0 && v > 0 && te > 0 ->
        Ok { S.train = t; valid = v; test = te }
    | _ -> Error (`Msg (Printf.sprintf "bad sizes %S: want TRAIN/VALID/TEST, e.g. 96/48/48" s))
  in
  let print ppf (s : S.sizes) =
    Format.fprintf ppf "%d/%d/%d" s.S.train s.S.valid s.S.test
  in
  Arg.conv (parse, print)

let shard_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Corpus.Shard.parse s) in
  let print ppf s = Format.pp_print_string ppf (Corpus.Shard.to_string s) in
  Arg.conv (parse, print)

let shard_arg =
  Arg.(
    value
    & opt (some shard_conv) None
    & info [ "shard" ] ~docv:"K/N"
        ~doc:
          "Run only shard $(docv) (1-based) of the corpus: benchmark $(i,i) \
           belongs to shard K of N iff $(i,i) mod N = K-1, so the N shards \
           cover every benchmark exactly once.  Requires $(b,--journal); \
           merge the shard journals with $(b,corpus merge).")

let families_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Corpus.Gen.parse_families s) in
  let print ppf fs =
    Format.pp_print_string ppf
      (String.concat "," (List.map Benchgen.Families.family_name fs))
  in
  Arg.conv (parse, print)

let noise_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Corpus.Gen.parse_noise s) in
  let print ppf ns =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int ns))
  in
  Arg.conv (parse, print)

let corpus_generate_cmd =
  let default = Corpus.Gen.default_config in
  let run out count seed sizes families noise =
    let config =
      { Corpus.Gen.count; seed; sizes; families; noise_sweep = noise }
    in
    Corpus.Gen.generate_file ~path:out config;
    read_corpus out (fun t ->
        Printf.printf "wrote %s: %d benchmarks, %d bytes\n  meta: %s\n" out
          (Corpus.Format.count t) (Corpus.Format.size t) (Corpus.Format.meta t))
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate a benchmark corpus: a single seekable binary file of \
          sampled train/valid/test sets over the generator families \
          (arithmetic cones, threshold, random symmetric, skewed-onset, \
          near-parity), optionally under a label-noise sweep.  The corpus \
          is deterministic in its parameters, which are recorded in the \
          file's meta header.")
    Term.(
      const run
      $ Arg.(
          value & opt string "corpus.lsmlc"
          & info [ "out" ] ~docv:"FILE" ~doc:"Output corpus file.")
      $ Arg.(
          value & opt int default.Corpus.Gen.count
          & info [ "count" ] ~docv:"N" ~doc:"Number of benchmarks.")
      $ seed_arg
      $ Arg.(
          value & opt sizes_conv default.Corpus.Gen.sizes
          & info [ "sizes" ] ~docv:"T/V/T"
              ~doc:"Samples per benchmark as TRAIN/VALID/TEST.")
      $ Arg.(
          value & opt families_conv default.Corpus.Gen.families
          & info [ "families" ] ~docv:"LIST"
              ~doc:
                "Comma-separated generator families: arith, threshold, \
                 symmetric, skewed, near-parity (default: all).")
      $ Arg.(
          value & opt noise_conv default.Corpus.Gen.noise_sweep
          & info [ "noise" ] ~docv:"LIST"
              ~doc:
                "Label-noise sweep in permille, e.g. 0,25,100; each family \
                 cycles through the rates (default: 0)."))

let corpus_info_cmd =
  let run path list_entries =
    read_corpus path (fun t ->
        Printf.printf "%s: %d benchmarks, %d bytes\nmeta: %s\n" path
          (Corpus.Format.count t) (Corpus.Format.size t) (Corpus.Format.meta t);
        if list_entries then
          for i = 0 to Corpus.Format.count t - 1 do
            let e = Corpus.Format.entry t i in
            Printf.printf "%s  %-10s  %3d inputs  %d/%d/%d samples  %s\n"
              e.Corpus.Format.name e.Corpus.Format.category
              e.Corpus.Format.num_inputs e.Corpus.Format.train_samples
              e.Corpus.Format.valid_samples e.Corpus.Format.test_samples
              e.Corpus.Format.description
          done)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print a corpus file's meta header and index.")
    Term.(
      const run $ corpus_pos
      $ Arg.(value & flag & info [ "list" ] ~doc:"Also list every benchmark."))

let corpus_run_cmd =
  let run path shard teams jobs time_limit fuel journal resume fail_degraded
      repair =
    if jobs < 1 then begin
      Printf.eprintf "--jobs must be at least 1\n";
      exit 2
    end;
    let teams = teams_of_spec teams in
    Resil.Fault.configure_from_env ();
    read_corpus path @@ fun corpus ->
    let options =
      { Corpus.Runner.teams; jobs; progress = true; time_limit; fuel; repair }
    in
    let meta = Corpus.Runner.meta_of_options options corpus in
    let shard_pair =
      Option.map (fun (s : Corpus.Shard.t) -> (s.Corpus.Shard.index, s.Corpus.Shard.count)) shard
    in
    if shard <> None && journal = None then begin
      Printf.eprintf
        "--shard requires --journal FILE (shard results live in the journal \
         and are assembled by corpus merge)\n";
      exit 2
    end;
    let journal =
      match (journal, resume) with
      | None, false -> None
      | None, true ->
          Printf.eprintf "--resume requires --journal FILE\n";
          exit 2
      | Some jpath, resume -> (
          if not resume then begin
            if Sys.file_exists jpath then begin
              Printf.eprintf
                "journal %s already exists; pass --resume to continue it or \
                 delete it to start over\n"
                jpath;
              exit 2
            end;
            Some (Resil.Journal.create ?shard:shard_pair ~path:jpath ~meta ())
          end
          else
            match Resil.Journal.load ?shard:shard_pair ~path:jpath ~meta () with
            | Ok j -> Some j
            | Error msg ->
                Printf.eprintf "cannot resume from %s: %s\n" jpath msg;
                exit 2)
    in
    let per_team = Corpus.Runner.run ?shard ?journal options corpus in
    (match shard with
    | Some s ->
        (* A shard's report would cover a quarter of a corpus; the real
           output is its journal.  The merged report is printed by
           [corpus merge], byte-identical to an unsharded run's. *)
        Printf.printf "shard %s: %d benchmarks x %d teams journaled\n"
          (Corpus.Shard.to_string s)
          (match per_team with [] -> 0 | (_, ms) :: _ -> List.length ms)
          (List.length per_team)
    | None -> Corpus.Runner.print_report corpus per_team);
    check_degraded fail_degraded per_team
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run team solvers over a corpus (or one $(b,--shard) of it) and \
          print the report.  Shards journal their rows under a shard tag; \
          $(b,corpus merge) reassembles the shard journals and prints a \
          report byte-identical to an unsharded run's.")
    Term.(
      const run $ corpus_pos $ shard_arg $ teams_arg $ jobs_arg
      $ time_limit_arg $ fuel_arg $ journal_arg $ resume_arg
      $ fail_degraded_arg $ repair_flag)

let corpus_merge_cmd =
  let run path sources out teams time_limit fuel repair =
    let teams = teams_of_spec teams in
    read_corpus path @@ fun corpus ->
    let options =
      {
        Corpus.Runner.teams;
        jobs = 1;
        progress = false;
        time_limit;
        fuel;
        repair;
      }
    in
    match Corpus.Runner.merge ~sources ~path:out options corpus with
    | Error msg ->
        Printf.eprintf "lsml: merge failed: %s\n" msg;
        exit 2
    | Ok per_team ->
        Corpus.Runner.print_report corpus per_team;
        Printf.eprintf "merged %d shard journals into %s\n"
          (List.length sources) out
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Merge per-shard journals of a corpus run into one unsharded \
          journal and print the report.  Validates that the sources are \
          exactly shards 1..N of the same run configuration; both the \
          merged journal and the report are byte-identical to what a \
          single unsharded run produces.")
    Term.(
      const run $ corpus_pos
      $ Arg.(
          non_empty
          & pos_right 0 file []
          & info [] ~docv:"JOURNAL" ~doc:"Per-shard journal files.")
      $ Arg.(
          value & opt string "merged.journal"
          & info [ "out" ] ~docv:"FILE" ~doc:"Merged journal output path.")
      $ teams_arg $ time_limit_arg $ fuel_arg $ repair_flag)

let corpus_cmd =
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "Benchmark corpus factory: generate corpora at any scale, run \
          them sharded across processes, and merge the shard journals \
          into one byte-identical report.")
    [ corpus_generate_cmd; corpus_info_cmd; corpus_run_cmd; corpus_merge_cmd ]

(* ---- serve / client ---- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path (default lsml.sock when $(b,--port) is \
           not given).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) TCP $(i,HOST):$(docv) instead of a \
              Unix socket.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host for $(b,--port).")

let listen_of_args socket host port : Serve.Server.listen =
  match (socket, port) with
  | Some _, Some _ ->
      Printf.eprintf "lsml: --socket and --port are mutually exclusive\n";
      exit 2
  | Some path, None -> `Unix path
  | None, Some port -> `Tcp (host, port)
  | None, None -> `Unix "lsml.sock"

let listen_name = function
  | `Unix path -> path
  | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let serve_cmd =
  let run socket host port jobs queue_depth cache_size cache_file metrics
      time_limit fuel =
    Resil.Fault.configure_from_env ();
    let listen = listen_of_args socket host port in
    let cfg =
      {
        Serve.Server.listen;
        jobs;
        queue_depth;
        cache_size;
        cache_file;
        cache_compact_bytes =
          (Serve.Server.default_config ~listen).Serve.Server
          .cache_compact_bytes;
        metrics_path = metrics;
        default_deadline = time_limit;
        default_fuel = fuel;
      }
    in
    let t =
      try Serve.Server.create cfg
      with Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "lsml serve: cannot listen on %s: %s %s\n"
          (listen_name listen) (Unix.error_message e) arg;
        exit 1
    in
    (match (cache_file, Serve.Server.replay_info t) with
    | Some path, Some r ->
        Printf.eprintf
          "lsml serve: cache log %s: %d result%s replayed%s%s\n%!" path
          r.Serve.Cache_log.replayed
          (if r.Serve.Cache_log.replayed = 1 then "" else "s")
          (if r.Serve.Cache_log.truncated_bytes > 0 then
             Printf.sprintf " (%d torn tail bytes truncated)"
               r.Serve.Cache_log.truncated_bytes
           else "")
          (if r.Serve.Cache_log.reset then " (stale log reset)" else "")
    | _ -> ());
    Printf.eprintf
      "lsml serve: listening on %s (%d jobs, queue depth %d, cache %d)\n%!"
      (listen_name listen) (max 1 jobs) queue_depth cache_size;
    Serve.Server.serve t;
    Printf.eprintf "lsml serve: drained and shut down\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis service: a long-lived daemon answering \
          JSON-lines solve/eval/verify/status requests over a Unix or TCP \
          socket, with bounded admission, a content-addressed result \
          cache, per-request deadlines, and live Prometheus metrics \
          (point a scraper at the socket; any line starting with \
          $(b,GET ) is answered as HTTP).")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ jobs_arg
      $ Arg.(
          value & opt int 64
          & info [ "queue-depth" ] ~docv:"N"
              ~doc:
                "Admission-queue capacity; requests beyond it are \
                 rejected immediately with a typed $(i,overloaded) \
                 response.")
      $ Arg.(
          value & opt int 256
          & info [ "cache-size" ] ~docv:"N"
              ~doc:
                "Result-cache entries (strict LRU, 0 disables). Identical \
                 solve requests replay the cached payload byte-for-byte.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "cache-file" ] ~docv:"FILE"
              ~doc:
                "Persist the result cache to an append-only CRC-guarded \
                 log at $(docv).  On startup the log is replayed (a torn \
                 tail from a crash is truncated, a log written under a \
                 different configuration is reset), so a restarted \
                 daemon keeps serving previous solves byte-identically.")
      $ Arg.(
          value
          & opt ~vopt:(Some "metrics.prom") (some string) None
          & info [ "metrics-path" ] ~docv:"FILE"
              ~doc:
                "Also write the Prometheus metrics page to $(docv) \
                 (atomically) at shutdown.")
      $ time_limit_arg $ fuel_arg)

(* Client-side transport errors exit 1 — only after the retry budget is
   exhausted; typed server responses map to distinct codes so shell
   scripts and CI can branch on them. *)
let client_exit_code = function
  | "result" | "status" | "ok" -> 0
  | "degraded" -> 3
  | "overloaded" -> 4
  | _ -> 2

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a failed connect or a cut connection up to $(docv) more \
           times with exponential backoff before giving up; the \
           transport exit code 1 is only reported after exhaustion.  A \
           re-sent solve is safe: it lands on the server's result cache \
           or coalesces onto the still-running execution.")

let retry_ms_arg =
  Arg.(
    value & opt int 100
    & info [ "retry-ms" ] ~docv:"MS"
        ~doc:
          "Backoff base: retry attempt $(i,n) waits about \
           $(docv)*2^$(i,n) ms (capped at 5s, jittered).")

let response_type resp =
  match Serve.Json.member "type" resp with
  | Some (Serve.Json.Str t) -> t
  | _ -> ""

(* All client commands funnel through Client.rpc_retry / with_retry: a
   fresh connection per attempt, exponential backoff between them. *)
let client_rpc ~retries ~retry_ms listen req =
  let resp =
    try Serve.Client.rpc_retry ~retries ~retry_ms listen req with
    | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "lsml client: cannot reach %s: %s\n"
          (listen_name listen) (Unix.error_message e);
        exit 1
    | Failure msg | Sys_error msg ->
        Printf.eprintf "lsml client: %s\n" msg;
        exit 1
    | End_of_file ->
        Printf.eprintf "lsml client: connection closed by server\n";
        exit 1
    | Serve.Json.Parse_error msg ->
        Printf.eprintf "lsml client: garbled response: %s\n" msg;
        exit 1
  in
  print_endline (Serve.Json.to_string resp);
  resp

let finish_rpc resp = exit (client_exit_code (response_type resp))

let read_text path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "lsml client: %s\n" msg;
    exit 1

let opt_field name f = function None -> [] | Some v -> [ (name, f v) ]

let request ~op fields =
  Serve.Json.Obj
    (("id", Serve.Json.Str "cli") :: ("op", Serve.Json.Str op) :: fields)

let client_solve_cmd =
  let run socket host port retries retry_ms team train valid seed sweep
      repair time_limit fuel trace out =
    let listen = listen_of_args socket host port in
    let req =
      request ~op:"solve"
        ([
           ("team", Serve.Json.Str team);
           ("train", Serve.Json.Str (read_text train));
         ]
        @ opt_field "valid" (fun p -> Serve.Json.Str (read_text p)) valid
        @ [ ("seed", Serve.Json.Int seed) ]
        @ (if sweep then [ ("sweep", Serve.Json.Bool true) ] else [])
        @ (if repair then [ ("repair", Serve.Json.Bool true) ] else [])
        @ opt_field "deadline_s" (fun s -> Serve.Json.Float s) time_limit
        @ opt_field "fuel" (fun f -> Serve.Json.Int f) fuel
        @ if trace then [ ("trace", Serve.Json.Bool true) ] else [])
    in
    let resp = client_rpc ~retries ~retry_ms listen req in
    (match
       ( out,
         Option.bind
           (Serve.Json.member "result" resp)
           (Serve.Json.member "aag") )
     with
    | Some path, Some (Serve.Json.Str aag) ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc aag);
        Printf.eprintf "wrote %s\n%!" path
    | Some path, _ ->
        Printf.eprintf "lsml client: no circuit in response, %s not written\n"
          path
    | None, _ -> ());
    finish_rpc resp
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Submit a solve request: learn a circuit for a training PLA on \
          the server.  A repeated identical request is served from the \
          result cache byte-identically.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ retries_arg
      $ retry_ms_arg $ team_arg
      $ pla_arg "train" "Training set."
      $ Arg.(
          value
          & opt (some file) None
          & info [ "valid" ] ~docv:"FILE.pla"
              ~doc:"Validation set (default: the training set).")
      $ seed_arg $ sweep_flag $ repair_flag $ time_limit_arg $ fuel_arg
      $ Arg.(
          value & flag
          & info [ "trace" ]
              ~doc:
                "Ask the server to attach this request's telemetry spans \
                 to the response.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE.aag"
              ~doc:"Write the returned circuit to $(docv)."))

let client_eval_cmd =
  let run socket host port retries retry_ms aag pla time_limit fuel =
    let listen = listen_of_args socket host port in
    let req =
      request ~op:"eval"
        ([
           ("aag", Serve.Json.Str (read_text aag));
           ("pla", Serve.Json.Str (read_text pla));
         ]
        @ opt_field "deadline_s" (fun s -> Serve.Json.Float s) time_limit
        @ opt_field "fuel" (fun f -> Serve.Json.Int f) fuel)
    in
    finish_rpc (client_rpc ~retries ~retry_ms listen req)
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Score a circuit against a PLA dataset on the server.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ retries_arg
      $ retry_ms_arg
      $ Arg.(
          required
          & opt (some file) None
          & info [ "aag" ] ~docv:"FILE.aag" ~doc:"Circuit to score.")
      $ pla_arg "pla" "Dataset to score against." $ time_limit_arg
      $ fuel_arg)

let client_verify_cmd =
  let run socket host port retries retry_ms a b conflicts time_limit fuel =
    let listen = listen_of_args socket host port in
    let req =
      request ~op:"verify"
        ([
           ("a", Serve.Json.Str (read_text a));
           ("b", Serve.Json.Str (read_text b));
           ("conflicts", Serve.Json.Int conflicts);
         ]
        @ opt_field "deadline_s" (fun s -> Serve.Json.Float s) time_limit
        @ opt_field "fuel" (fun f -> Serve.Json.Int f) fuel)
    in
    finish_rpc (client_rpc ~retries ~retry_ms listen req)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"SAT equivalence check of two circuits on the server.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ retries_arg
      $ retry_ms_arg
      $ Arg.(
          required & pos 0 (some file) None
          & info [] ~docv:"A.aag" ~doc:"First circuit.")
      $ Arg.(
          required & pos 1 (some file) None
          & info [] ~docv:"B.aag" ~doc:"Second circuit.")
      $ Arg.(
          value & opt int 100_000
          & info [ "conflict-limit" ] ~docv:"N"
              ~doc:"SAT conflict budget before answering unknown.")
      $ time_limit_arg $ fuel_arg)

let client_simple_cmd name doc op =
  let run socket host port retries retry_ms =
    let listen = listen_of_args socket host port in
    finish_rpc (client_rpc ~retries ~retry_ms listen (request ~op []))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ retries_arg
      $ retry_ms_arg)

let client_metrics_cmd =
  let run socket host port retries retry_ms =
    let listen = listen_of_args socket host port in
    match
      Serve.Client.with_retry ~retries ~retry_ms (fun () ->
          Serve.Client.scrape_metrics listen)
    with
    | body -> print_string body
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "lsml client: cannot reach %s: %s\n"
          (listen_name listen) (Unix.error_message e);
        exit 1
    | exception Failure msg ->
        Printf.eprintf "lsml client: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape the server's live Prometheus metrics page (the same \
          bytes an HTTP $(b,GET /metrics) against the socket returns).")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ retries_arg
      $ retry_ms_arg)

let client_raw_cmd =
  let run socket host port retries retry_ms line =
    let listen = listen_of_args socket host port in
    match
      Serve.Client.with_retry ~retries ~retry_ms (fun () ->
          let c = Serve.Client.connect listen in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () ->
              match Serve.Client.rpc_raw c line with
              | Some resp -> resp
              | None -> raise End_of_file))
    with
    | resp ->
        print_endline resp;
        let typ =
          match Serve.Json.parse resp with
          | j -> response_type j
          | exception Serve.Json.Parse_error _ -> ""
        in
        exit (client_exit_code typ)
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "lsml client: cannot reach %s: %s\n"
          (listen_name listen) (Unix.error_message e);
        exit 1
    | exception End_of_file ->
        Printf.eprintf "lsml client: connection closed by server\n";
        exit 1
  in
  Cmd.v
    (Cmd.info "raw"
       ~doc:
         "Send one raw protocol line verbatim and print the one-line \
          response — the escape hatch for scripting and for exercising \
          the server's error handling.")
    Term.(
      const run $ socket_arg $ host_arg $ port_arg $ retries_arg
      $ retry_ms_arg
      $ Arg.(
          required & pos 0 (some string) None
          & info [] ~docv:"LINE" ~doc:"Raw request line (JSON)."))

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,lsml serve) daemon.  Exit codes: 0 \
          result/status/ok, 2 typed error, 3 degraded, 4 overloaded, 1 \
          transport failure.")
    [
      client_solve_cmd; client_eval_cmd; client_verify_cmd;
      client_simple_cmd "status" "Query queue, cache, and request counters."
        "status";
      client_simple_cmd "shutdown"
        "Gracefully shut the server down (drains in-flight requests first)."
        "shutdown";
      client_metrics_cmd; client_raw_cmd;
    ]

let () =
  let doc = "learning incompletely-specified Boolean functions (IWLS 2020 contest)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "lsml" ~doc)
          [ list_cmd; generate_cmd; solve_cmd; eval_cmd; verify_cmd;
            sweep_cmd; run_cmd; suite_cmd; pareto_cmd; stats_cmd; corpus_cmd;
            serve_cmd; client_cmd ]))
