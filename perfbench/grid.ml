(* Workload [grid]: the contest as users run it.  All ten teams solve a
   seeded draw of suite benchmarks, stratified over the nine categories,
   through [Experiments.solve_grid] with one job per core.  Learners
   (mostly the MLPs) and the domain pool carry the load; SAT stays idle. *)

open Common
module S = Benchgen.Suite
module Sv = Contest.Solver

type config = {
  categories : S.category list;  (** one benchmark drawn from each *)
  sizes : S.sizes;
  jobs : int;
}

let all_categories =
  S.[ Adder; Divider; Multiplier; Comparator; Square_root; Logic_cone;
      Symmetric; Mnist_like; Cifar_like ]

(* Stratified draw: one id from every category, so every run weighs the
   categories alike.  The draw is fixed (seed [structure_seed]), and so
   are the training and validation sets; the run seed draws each test
   set from a fixed pool three times its size, disjoint from training
   and validation (see [setup]).  The suite is heterogeneous inside a
   category (a 32-bit and a 256-bit adder differ fivefold in solve time,
   a divider MSB needs 0 gates and a square-root bit 1000): over runs
   that also re-drew the ids, tasks/s and mean gates would spread by
   about 15% between quartiles, too wide to hold a regression bound. *)
let structure_seed = 1

let draw cfg =
  let st = Random.State.make [| 0x67726964; structure_seed |] in
  List.map
    (fun cat ->
      let pool =
        List.filter (fun (b : S.benchmark) -> b.S.category = cat) (Array.to_list S.benchmarks)
      in
      (List.nth pool (Random.State.int st (List.length pool))).S.id)
    cfg.categories

(* The learned circuits depend on the training sample chaotically: between
   training draws one task's circuit moved from 0 to 250 gates, another's
   from 1235 to 2, and the geometric mean gates of the grid spread by
   0.15 between quartiles.  With the training sets fixed every seed ships
   the same circuits, so gates and the learners' work repeat exactly and
   a change to either shows undiluted. *)
let setup cfg ~seed =
  let pool = { cfg.sizes with S.test = 3 * cfg.sizes.S.test } in
  List.map
    (fun id ->
      let inst = S.instantiate ~sizes:pool ~seed:structure_seed (S.benchmark id) in
      let st = Random.State.make [| 0x74657374; seed; id |] in
      let test, _ = Data.Dataset.split_at (Data.Dataset.shuffle st inst.S.test) cfg.sizes.S.test in
      { inst with S.test })
    (draw cfg)

(* The shipped circuit of every task, keyed by (team, benchmark), taken
   from the solver's own return value so the checks below can re-score it
   without trusting [Score]. *)
type capture = {
  lock : Mutex.t;
  circuits : (string * string, Aig.Graph.t) Hashtbl.t;
  solve_s : (string, float) Hashtbl.t;  (** per-team solve seconds *)
  bench_s : (string, float) Hashtbl.t;  (** per-benchmark solve seconds *)
  task_ms : (string * string, float list) Hashtbl.t;
      (** solve milliseconds of each task, one per pass *)
}

let capture () =
  { lock = Mutex.create (); circuits = Hashtbl.create 128; solve_s = Hashtbl.create 16;
    bench_s = Hashtbl.create 16; task_ms = Hashtbl.create 128 }

let with_lock c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let add tbl key dt =
  Hashtbl.replace tbl key (dt +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

let wrap c (solver : Sv.t) =
  {
    solver with
    Sv.solve =
      (fun inst ->
        let r, dt = time (fun () -> solver.Sv.solve inst) in
        let bench = inst.S.spec.S.name in
        with_lock c (fun () ->
            Hashtbl.replace c.circuits (solver.Sv.name, bench) r.Sv.aig;
            add c.solve_s solver.Sv.name dt;
            add c.bench_s bench dt;
            let key = (solver.Sv.name, bench) in
            Hashtbl.replace c.task_ms key
              ((1000.0 *. dt) :: Option.value ~default:[] (Hashtbl.find_opt c.task_ms key)));
        r);
  }

let run_pass c ~jobs instances =
  Contest.Experiments.solve_grid
    ~teams:(List.map (wrap c) Contest.Teams.all)
    ~progress:false ~jobs instances

(* Rows without their wall-clock field, which is set on degraded rows
   only and is the one field allowed to differ between passes. *)
let canonical rows =
  List.map
    (fun (team, ms) ->
      (team, List.map (fun (m : Contest.Score.metrics) -> { m with Contest.Score.wall_s = 0.0 }) ms))
    rows

(* Every shipped circuit stays within the gate budget and its reported
   test accuracy matches the naive simulator.  Returns the problems. *)
let check_rows ~circuit instances rows =
  let by_id = Hashtbl.create 16 in
  List.iter (fun (i : S.instance) -> Hashtbl.replace by_id i.S.spec.S.id i) instances;
  List.concat_map
    (fun (team, ms) ->
      List.filter_map
        (fun (m : Contest.Score.metrics) ->
          let inst = Hashtbl.find by_id m.Contest.Score.benchmark in
          let key = Printf.sprintf "%s/%s" team inst.S.spec.S.name in
          if m.Contest.Score.fell_back || m.Contest.Score.crashes > 0
             || m.Contest.Score.timeouts > 0
          then Some (key ^ ": degraded row")
          else
            match circuit team inst.S.spec.S.name with
            | None -> Some (key ^ ": no circuit captured")
            | Some g ->
                let gates = reachable_ands g in
                let acc = oracle_accuracy g inst.S.test in
                if gates > Sv.gate_budget then
                  Some (Printf.sprintf "%s: %d gates over the %d budget" key gates Sv.gate_budget)
                else if Float.abs (acc -. m.Contest.Score.test_acc) > 1e-9 then
                  Some
                    (Printf.sprintf "%s: reported test accuracy %.6f, simulated %.6f" key
                       m.Contest.Score.test_acc acc)
                else None)
        ms)
    rows

let row_metrics rows = List.concat_map snd rows

let e2e_quality rows =
  let ms = row_metrics rows in
  let n = float_of_int (List.length ms) in
  let acc = sum (List.map (fun (m : Contest.Score.metrics) -> m.Contest.Score.test_acc) ms) in
  ( 100.0 *. acc /. n,
    List.map (fun (m : Contest.Score.metrics) -> float_of_int m.Contest.Score.gates) ms )

(* Clears the per-pass sums of [c]; the captured circuits stay. *)
let reset c =
  with_lock c (fun () ->
      Hashtbl.reset c.solve_s;
      Hashtbl.reset c.bench_s;
      Hashtbl.reset c.task_ms)

(* Timed part: a warm-up pass, whose rows every later pass must repeat,
   then whole timed passes (see [Common.passes]).  The first pass of a
   process runs about a tenth slower while the heap grows.  Returns the
   warm-up rows, the throughput (tasks per second) of every timed pass,
   each task's median solve milliseconds over them, and their wall
   time. *)
let timed c cfg ~seconds instances lg =
  let first = run_pass c ~jobs:cfg.jobs instances in
  reset c;
  let runs, wall =
    passes ~seconds (fun () -> time (fun () -> run_pass c ~jobs:cfg.jobs instances))
  in
  List.iter
    (fun (rows, _) ->
      attempt lg (canonical first = canonical rows) ~what:"grid pass differs from the first pass")
    runs;
  let tasks = float_of_int (List.length (row_metrics first)) in
  let task_ms =
    with_lock c (fun () -> Hashtbl.fold (fun _ ms acc -> median ms :: acc) c.task_ms [])
  in
  (first, List.map (fun (_, w) -> tasks /. w) runs, task_ms, wall)

let check c lg instances rows =
  let circuit team bench = with_lock c (fun () -> Hashtbl.find_opt c.circuits (team, bench)) in
  let problems = check_rows ~circuit instances rows in
  let n = List.length (row_metrics rows) in
  lg.attempted <- lg.attempted + n;
  lg.failed <- lg.failed + List.length problems;
  List.iter (problem lg) problems

let team_names = List.map (fun (s : Sv.t) -> s.Sv.name) Contest.Teams.all

(* Solve seconds summed over the timed passes, then cleared. *)
let take_solve_seconds c =
  let total = with_lock c (fun () -> Hashtbl.fold (fun _ dt acc -> acc +. dt) c.solve_s 0.0) in
  reset c;
  total

(* Tracing overhead, in percent.  The cheapest benchmark's ten tasks run
   on one job, untraced and traced in alternation (which comes first
   alternates too), each sample repeated to last at least a second; the
   result is the median of the paired differences, so drift of the
   machine between samples cancels.  A pair takes a few seconds, so
   there are at most [overhead_pairs] of them, and fewer (at least one)
   when the run nears its watchdog. *)
let overhead_pairs = 5

let overhead_pct c instances =
  let cost (i : S.instance) = Option.value ~default:0.0 (Hashtbl.find_opt c.bench_s i.S.spec.S.name) in
  let cheapest =
    List.fold_left (fun a b -> if cost b < cost a then b else a) (List.hd instances) instances
  in
  let reps = max 1 (int_of_float (Float.ceil (1.0 /. Float.max 1e-3 (cost cheapest)))) in
  let sample ~traced =
    if traced then begin
      Telemetry.reset ();
      Telemetry.enable ()
    end;
    let dt =
      snd (time (fun () ->
               for _ = 1 to reps do
                 ignore (run_pass (capture ()) ~jobs:1 [ cheapest ])
               done))
    in
    Telemetry.disable ();
    dt
  in
  let rec go i acc =
    if i > 0 && (i = overhead_pairs || time_left () < 45.0) then acc
    else begin
      let first = sample ~traced:(i mod 2 = 1) in
      let second = sample ~traced:(i mod 2 = 0) in
      let untraced, traced = if i mod 2 = 0 then (first, second) else (second, first) in
      go (i + 1) ((traced -. untraced) /. untraced :: acc)
    end
  in
  100.0 *. median (go 0 [])

(* Per-layer numbers of [grid]: a traced one-job pass attributes wall time
   to teams, then each learner's public entry point is timed on the same
   instances, and last the tracing overhead is measured.  [pool.efficiency]
   is the share of the timed passes' worker time spent inside
   [Solver.solve] (their own untraced solve seconds over wall x jobs);
   load imbalance and pool overhead lower it. *)
let traced c cfg instances rows ~timed_wall lg =
  let jobs = cfg.jobs in
  let busy = take_solve_seconds c in
  Telemetry.reset ();
  Telemetry.enable ();
  let gc0 = gc_counts () in
  let rows1, wall1 = time (fun () -> run_pass c ~jobs:1 instances) in
  let gc1 = gc_counts () in
  Telemetry.disable ();
  attempt lg (canonical rows1 = canonical rows) ~what:"traced one-job grid differs from the timed pass";
  let solve_s name = Option.value ~default:0.0 (Hashtbl.find_opt c.solve_s name) in
  let solve_total = sum (List.map solve_s team_names) in
  attempt lg
    (Float.abs (wall1 -. solve_total) <= 0.1 *. wall1)
    ~what:
      (Printf.sprintf "contest.solve_s.* sum to %.3f s, one-job wall %.3f s" solve_total wall1);
  let enforce_s = span_seconds "candidate.eval" in
  let words = counter "engine.words_simulated" in
  let early = counter "engine.early_exits" + counter "engine.batch_early_exits" in
  let runs =
    counter "engine.full_runs" + counter "engine.incremental_runs"
    + counter "engine.batch_candidates"
  in
  let approx = counter "approx.replacements" in
  let sat_conflicts = counter "sat.conflicts" and sat_props = counter "sat.propagations" in
  let circuit team bench = Hashtbl.find c.circuits (team, bench) in
  (* pick_best over each benchmark's ten shipped circuits (the grid's
     virtual best), and the scoring simulation of every shipped circuit. *)
  let pick_s =
    sum
      (List.map
         (fun (inst : S.instance) ->
           let cands =
             List.map (fun t -> (t, circuit t inst.S.spec.S.name)) team_names
           in
           snd (time (fun () -> Sv.pick_best ~valid:inst.S.valid cands)))
         instances)
  in
  let eval_s =
    sum
      (List.concat_map
         (fun (inst : S.instance) ->
           List.map
             (fun t ->
               snd (time (fun () -> Sv.evaluate (circuit t inst.S.spec.S.name) inst.S.test)))
             team_names)
         instances)
  in
  let learners = Learners.time_all ~seed:1 instances in
  let overhead = overhead_pct c instances in
  List.map (fun t -> m ("contest.solve_s." ^ t) "s" (solve_s t)) team_names
  @ [
      m "contest.pick_best_s" "s" pick_s;
      m "contest.enforce_budget_s" "s" enforce_s;
    ]
  @ learners
  @ [
      m "aig.engine_words" "count" (float_of_int words);
      m "aig.engine_early_exit_frac" "frac"
        (if runs = 0 then 0.0 else float_of_int early /. float_of_int runs);
      m "aig.approx_replacements" "count" (float_of_int approx);
      m "aig.eval_ms" "ms" (1000.0 *. eval_s);
      m "pool.efficiency" "frac" (busy /. (timed_wall *. float_of_int jobs));
      m "sat.conflicts" "count" (float_of_int sat_conflicts);
      m "sat.propagations" "count" (float_of_int sat_props);
      m "gc.minor" "count" (float_of_int (fst gc1 - fst gc0));
      m "gc.major" "count" (float_of_int (snd gc1 - snd gc0));
      m "trace.overhead_pct" "%" overhead;
    ]
