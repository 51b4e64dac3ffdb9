(* Benchmark harness: regenerates every table and figure of the paper and
   offers Bechamel micro-benchmarks of the substrates (--perf).

   Usage:
     dune exec bench/main.exe                    # everything, reduced scale
     dune exec bench/main.exe -- table3 fig2     # selected experiments
     dune exec bench/main.exe -- --full table3   # paper-scale datasets
     dune exec bench/main.exe -- --ids 0-9 fig5_6
     dune exec bench/main.exe -- -j 8 table3     # fan solves across domains
     dune exec bench/main.exe -- --perf          # substrate micro-benches *)

module E = Contest.Experiments

let usage_error msg =
  Printf.eprintf
    "bench: %s\nusage: main.exe [--full] [--ids SPEC] [--seed N] [-j|--jobs N] \
     [--perf] [--quick] [--json PATH] [EXPERIMENT...]\n"
    msg;
  exit 2

let all_experiments =
  [ "table3"; "fig1"; "fig2"; "fig3"; "fig4"; "table4"; "fig16_17"; "table5";
    "table6"; "table7"; "fig5_6"; "fig7"; "fig11_12"; "fig21"; "fig32_33"; "fig26_27"; "appendix_bdd"; "ablations"; "corpus"; "repair" ]

let needs_shared_run = [ "table3"; "fig2"; "fig3"; "fig4"; "fig32_33" ]

(* The standalone studies retrain models per benchmark; by default they run
   on a representative spread (about two per category) instead of all 100. *)
let standalone_default_ids =
  [ 0; 1; 8; 12; 19; 20; 29; 30; 39; 40; 47; 50; 59; 63; 70; 74; 75; 80; 85;
    90; 95 ]

let parse_ids spec =
  match Benchgen.Suite.parse_ids spec with
  | Ok ids -> ids
  | Error msg -> usage_error (msg ^ "; expected e.g. --ids 0-9,30,74")

let parse_positive_int ~flag spec =
  match int_of_string_opt spec with
  | Some n when n >= 1 -> n
  | Some _ | None ->
      usage_error (Printf.sprintf "%s expects a positive integer, got %S" flag spec)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let perf ?(quick = false) () =
  let open Bechamel in
  let open Toolkit in
  let inst =
    Benchgen.Suite.instantiate ~sizes:Benchgen.Suite.reduced_sizes ~seed:1
      (Benchgen.Suite.benchmark 30)
  in
  let train = inst.Benchgen.Suite.train in
  let parity_aig =
    let g = Aig.Graph.create ~num_inputs:20 () in
    Aig.Graph.set_output g
      (List.fold_left (Aig.Graph.xor_ g) Aig.Graph.const_false
         (List.init 20 (Aig.Graph.input g)));
    g
  in
  let st = Random.State.make [| 42 |] in
  let columns = Aig.Sim.random_patterns st ~num_inputs:20 ~num_patterns:6400 in
  let expected = Words.random st 6400 in
  let engine = Aig.Sim.Engine.create () in
  let tests =
    [ Test.make ~name:"aig-sim-6400pat"
        (Staged.stage (fun () -> ignore (Aig.Sim.simulate parity_aig columns)));
      Test.make ~name:"engine-accuracy-6400pat"
        (Staged.stage (fun () ->
             ignore
               (Aig.Sim.Engine.accuracy engine parity_aig columns ~expected)));
      Test.make ~name:"dtree-train-depth8"
        (Staged.stage (fun () ->
             ignore
               (Dtree.Train.train
                  { Dtree.Train.default_params with Dtree.Train.max_depth = Some 8 }
                  train)));
      Test.make ~name:"espresso-1pass"
        (Staged.stage (fun () ->
             let config =
               { Sop.Espresso.default_config with Sop.Espresso.max_passes = 1 }
             in
             ignore (Sop.Espresso.minimize ~config train)));
      Test.make ~name:"lutnet-train-4x32"
        (Staged.stage (fun () -> ignore (Lutnet.train Lutnet.default_params train)));
      Test.make ~name:"forest-train-9x8"
        (Staged.stage (fun () ->
             let rng = Random.State.make [| 9 |] in
             ignore
               (Forest.Bagging.train ~rng
                  { Forest.Bagging.default_params with Forest.Bagging.num_trees = 9 }
                  train)))
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      if quick then
        Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ~kde:(Some 100) ()
      else Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances test in
    List.map (fun i -> Analyze.all ols i raw_results) instances
  in
  Contest.Report.heading "Substrate micro-benchmarks (bechamel)";
  let results =
    benchmark (Test.make_grouped ~name:"lsml" ~fmt:"%s %s" tests)
  in
  let kernels = ref [] in
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ t ] ->
              kernels := (name, t) :: !kernels;
              Printf.printf "%-28s %12.0f ns/run\n" name t
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        result)
    results;
  List.sort (fun (a, _) (b, _) -> compare a b) !kernels

(* ------------------------------------------------------------------ *)
(* Repeated-evaluation loops: engine vs naive simulation               *)
(* ------------------------------------------------------------------ *)

type loop_result = {
  loop_name : string;
  ops : int;
  naive_ns : float;  (* per op *)
  engine_ns : float;  (* per op *)
}

let time_ns f =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* The solver's inner loop: score many candidate circuits against the same
   validation columns.  The naive path allocates a fresh value vector per
   AND node per call; the engine scores each candidate through the tiled
   kernel over one reused arena. *)
let solver_accuracy_loop ~reps =
  let num_inputs = 20 and num_patterns = 512 in
  let st = Random.State.make [| 0xbe7c; 1 |] in
  let columns = Aig.Sim.random_patterns st ~num_inputs ~num_patterns in
  let expected = Words.random st num_patterns in
  let candidates =
    Array.init 24 (fun i ->
        Benchgen.Logic_bench.cone ~seed:(100 + i) ~num_inputs ~num_nodes:600 ())
  in
  let sink = ref 0.0 in
  let naive_total =
    time_ns (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun g -> sink := !sink +. Aig.Sim.accuracy g columns expected)
            candidates
        done)
  in
  let engine = Aig.Sim.Engine.create () in
  let engine_sink = ref 0.0 in
  let engine_total =
    time_ns (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun g ->
              engine_sink :=
                !engine_sink
                +. Aig.Sim.Engine.accuracy engine g columns ~expected)
            candidates
        done)
  in
  if !sink <> !engine_sink then
    failwith "solver-accuracy-loop: engine diverged from naive accuracy";
  let ops = reps * Array.length candidates in
  {
    loop_name = "solver-accuracy-loop";
    ops;
    naive_ns = naive_total /. float_of_int ops;
    engine_ns = engine_total /. float_of_int ops;
  }

(* The portfolio pick: one good candidate and a field of losers, scored
   against the same validation columns by the same tiled kernel.  The
   baseline scores every candidate with no limit, so none can be pruned
   and every one is simulated to the end.  The pick is
   [Solver.pick_best]'s incumbent loop, which gives each candidate the
   best count so far as its limit and so abandons losers after their
   first tiles, skipping most of the *simulation*, which is where the
   time goes: the ratio isolates the tiled early exit.  Candidate 0
   computes the expected function up to ~2% noise, so the limit tightens
   after the first candidate; every other candidate is unrelated logic
   sitting at ~50% disagreement. *)
let pick_best_setup () =
  let num_inputs = 20 and num_patterns = 16384 in
  let st = Random.State.make [| 0xba7c; 4 |] in
  let columns = Aig.Sim.random_patterns st ~num_inputs ~num_patterns in
  let candidates =
    Array.init 24 (fun i ->
        Benchgen.Logic_bench.cone ~seed:(200 + i) ~num_inputs ~num_nodes:600 ())
  in
  let expected = Aig.Sim.simulate candidates.(0) columns in
  for j = 0 to num_patterns - 1 do
    if Random.State.float st 1.0 < 0.02 then
      Words.set expected j (not (Words.get expected j))
  done;
  (columns, expected, candidates)

(* Index of the candidate with the fewest disagreements, first seen
   winning ties.  With [prune], each candidate's limit is the best count
   so far; without, every count is exact. *)
let incumbent_pick ?tile_words ~prune engine candidates columns ~expected =
  let best = ref (-1) and best_d = ref max_int in
  Array.iteri
    (fun i g ->
      let limit = if prune then !best_d else max_int in
      match
        Aig.Sim.Engine.disagreements ~limit ?tile_words engine g columns
          ~expected
      with
      | Some d when d < !best_d ->
          best := i;
          best_d := d
      | Some _ | None -> ())
    candidates;
  !best

let pick_best_batch_loop ~reps =
  let columns, expected, candidates = pick_best_setup () in
  let engine = Aig.Sim.Engine.create () in
  let pick ~prune = incumbent_pick ~prune engine candidates columns ~expected in
  let naive_winner = ref (-1) in
  let naive_total =
    time_ns (fun () ->
        for _ = 1 to reps do
          naive_winner := pick ~prune:false
        done)
  in
  let pruned_winner = ref (-2) in
  let engine_total =
    time_ns (fun () ->
        for _ = 1 to reps do
          pruned_winner := pick ~prune:true
        done)
  in
  if !naive_winner <> !pruned_winner then
    failwith "pick-best-batch: pruned winner diverged from the unpruned one";
  {
    loop_name = "pick-best-batch";
    ops = reps;
    naive_ns = naive_total /. float_of_int reps;
    engine_ns = engine_total /. float_of_int reps;
  }

(* Intra-benchmark parallel training: the same forest fit with and without
   an ambient pool.  Byte-identity of the two models is asserted on every
   rep — the speedup must come for free. *)
let forest_intra_loop ~jobs ~reps =
  let inst =
    Benchgen.Suite.instantiate ~sizes:Benchgen.Suite.reduced_sizes ~seed:1
      (Benchgen.Suite.benchmark 52)
  in
  let train = inst.Benchgen.Suite.train in
  let params =
    { Forest.Bagging.default_params with Forest.Bagging.num_trees = 33 }
  in
  let fit ?pool () =
    Forest.Bagging.train ?pool ~rng:(Random.State.make [| 9; 52 |]) params train
  in
  let seq = ref (fit ()) in
  let naive_total = time_ns (fun () -> for _ = 1 to reps do seq := fit () done) in
  let par = ref !seq in
  let engine_total =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        time_ns (fun () -> for _ = 1 to reps do par := fit ~pool () done))
  in
  let columns = Data.Dataset.columns train in
  if
    not
      (Words.equal
         (Forest.Bagging.predict_mask !seq columns)
         (Forest.Bagging.predict_mask !par columns))
  then failwith "forest-intra: pooled forest diverged from sequential";
  {
    loop_name = Printf.sprintf "forest-intra-%dj" jobs;
    ops = reps;
    naive_ns = naive_total /. float_of_int reps;
    engine_ns = engine_total /. float_of_int reps;
  }

let speedup_of r = if r.engine_ns > 0.0 then r.naive_ns /. r.engine_ns else 0.0

(* ------------------------------------------------------------------ *)
(* Tile-size sweep for the tiled kernel                                *)
(* ------------------------------------------------------------------ *)

type tile_result = {
  tile_words : int;
  tile_ns : float;  (* per pick over the whole portfolio *)
}

let tile_sweep ~reps () =
  Contest.Report.heading "Incumbent pick-best tile-size sweep";
  let columns, expected, candidates = pick_best_setup () in
  let engine = Aig.Sim.Engine.create () in
  let results =
    List.map
      (fun tw ->
        let pick () =
          ignore
            (incumbent_pick ~tile_words:tw ~prune:true engine candidates
               columns ~expected)
        in
        pick ();
        let total = time_ns (fun () -> for _ = 1 to reps do pick () done) in
        { tile_words = tw; tile_ns = total /. float_of_int reps })
      [ 4; 8; 16; 32; 64 ]
  in
  let fastest =
    List.fold_left (fun acc t -> min acc t.tile_ns) infinity results
  in
  Contest.Report.table
    ~header:[ "tile words"; "ns/pick"; "vs fastest" ]
    (List.map
       (fun t ->
         [ string_of_int t.tile_words;
           Printf.sprintf "%.0f" t.tile_ns;
           Printf.sprintf "%.2fx" (t.tile_ns /. fastest) ])
       results);
  results

(* ------------------------------------------------------------------ *)
(* Per-phase GC accounting (Gc.quick_stat deltas around each stage)     *)
(* ------------------------------------------------------------------ *)

type gc_sample = {
  gc_phase : string;
  gc_wall_s : float;
  gc_minor : int;
  gc_major : int;
  gc_top_heap_words : int;  (* process peak up to the end of the phase *)
}

let with_gc phase f =
  let s0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      gc_phase = phase;
      gc_wall_s = wall;
      gc_minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      gc_major = s1.Gc.major_collections - s0.Gc.major_collections;
      gc_top_heap_words = s1.Gc.top_heap_words;
    } )

let gc_section samples =
  Contest.Report.heading "GC per phase (Gc.quick_stat deltas)";
  Contest.Report.table
    ~header:[ "phase"; "wall (s)"; "minor"; "major"; "top heap words" ]
    (List.map
       (fun g ->
         [ g.gc_phase;
           Printf.sprintf "%.2f" g.gc_wall_s;
           string_of_int g.gc_minor;
           string_of_int g.gc_major;
           string_of_int g.gc_top_heap_words ])
       samples)

let engine_loops ~quick ~jobs () =
  Contest.Report.heading "Repeated-evaluation loops (naive vs engine)";
  let loops =
    [ solver_accuracy_loop ~reps:(if quick then 5 else 50);
      pick_best_batch_loop ~reps:(if quick then 5 else 30) ]
    @
    (* Parallel training only earns its measurement at paper scale; the
       quick (CI smoke) profile skips the pool spin-up. *)
    if quick then []
    else [ forest_intra_loop ~jobs:(max 2 jobs) ~reps:3 ]
  in
  Contest.Report.table
    ~header:[ "loop"; "ops"; "naive ns/op"; "engine ns/op"; "speedup" ]
    (List.map
       (fun r ->
         [ r.loop_name;
           string_of_int r.ops;
           Printf.sprintf "%.0f" r.naive_ns;
           Printf.sprintf "%.0f" r.engine_ns;
           Printf.sprintf "%.2fx" (speedup_of r) ])
       loops);
  let tiles = tile_sweep ~reps:(if quick then 3 else 15) () in
  (loops, tiles)

(* One row of the CEGIS repair loop benchmark (BENCH.json "repair"). *)
type repair_sample = {
  rp_name : string;
  rp_iterations : int;
  rp_cex : int;
  rp_errors_before : int;
  rp_errors_after : int;
  rp_stopped : string;
  rp_wall_s : float;
}

(* One row of the SAT-sweeping benchmark (BENCH.json "sweep"): the sweep
   and the equivalence check of its result against the input. *)
type sweep_sample = {
  sw_name : string;
  sw_gates : int;
  sw_swept : int;
  sw_sat_calls : int;
  sw_sweep_s : float;
  sw_cec_s : float;
  sw_verdict : string;
}

(* ------------------------------------------------------------------ *)
(* BENCH.json (schema documented in EXPERIMENTS.md)                    *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.3f" f else "null"

let write_bench_json path ~mode ~seed ~kernels ~loops ~tiles ~repair ~sweep
    ~gc ~suite_wall_s =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"lsml-bench/5\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"mode\": \"%s\",\n" mode);
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_op\": %s}%s\n"
           (json_escape name) (json_float ns)
           (if i = List.length kernels - 1 then "" else ",")))
    kernels;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"loops\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"ops\": %d, \"naive_ns_per_op\": %s, \
            \"engine_ns_per_op\": %s, \"speedup\": %s}%s\n"
           (json_escape r.loop_name) r.ops (json_float r.naive_ns)
           (json_float r.engine_ns)
           (json_float (speedup_of r))
           (if i = List.length loops - 1 then "" else ",")))
    loops;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"tiles\": [\n";
  List.iteri
    (fun i t ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"tile_words\": %d, \"ns_per_pick\": %s}%s\n"
           t.tile_words
           (json_float t.tile_ns)
           (if i = List.length tiles - 1 then "" else ",")))
    tiles;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"repair\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"benchmark\": \"%s\", \"iterations\": %d, \
            \"counterexamples\": %d, \"errors_before\": %d, \
            \"errors_after\": %d, \"stopped\": \"%s\", \"wall_s\": %s}%s\n"
           (json_escape s.rp_name) s.rp_iterations s.rp_cex s.rp_errors_before
           s.rp_errors_after (json_escape s.rp_stopped)
           (json_float s.rp_wall_s)
           (if i = List.length repair - 1 then "" else ",")))
    repair;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"sweep\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"circuit\": \"%s\", \"gates\": %d, \"swept\": %d, \
            \"sat_calls\": %d, \"sweep_s\": %s, \"cec_s\": %s, \
            \"verdict\": \"%s\"}%s\n"
           (json_escape s.sw_name) s.sw_gates s.sw_swept s.sw_sat_calls
           (json_float s.sw_sweep_s) (json_float s.sw_cec_s)
           (json_escape s.sw_verdict)
           (if i = List.length sweep - 1 then "" else ",")))
    sweep;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"gc\": [\n";
  List.iteri
    (fun i g ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"phase\": \"%s\", \"wall_s\": %s, \"minor_collections\": \
            %d, \"major_collections\": %d, \"top_heap_words\": %d}%s\n"
           (json_escape g.gc_phase)
           (json_float g.gc_wall_s)
           g.gc_minor g.gc_major g.gc_top_heap_words
           (if i = List.length gc - 1 then "" else ",")))
    gc;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"suite_wall_s\": %s\n" (json_float suite_wall_s));
  Buffer.add_string buf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* SAT sweeping: exact node reduction on contest-scale AIGs            *)
(* ------------------------------------------------------------------ *)

let sat_sweep_perf ~quick =
  Contest.Report.heading "SAT sweeping (exact reduction, contest-scale AIGs)";
  (* Two flavours of redundancy: a cone muxed with its own balanced
     rewrite (the branches are equal, so the mux must collapse), and a
     raw wide cone (whatever internal equivalences random generation
     happens to plant). *)
  let mux_of_rewrites ~seed ~num_inputs =
    let cone = Benchgen.Logic_bench.cone ~seed ~num_inputs () in
    let bal = Aig.Opt.balance cone in
    let g = Aig.Graph.create ~num_inputs:(num_inputs + 1) () in
    let shift src =
      (* Re-express an [num_inputs]-input graph over inputs 1.. of [g]. *)
      let remapped =
        Aig.Opt.remap_inputs src ~map:(fun i -> i + 1)
          ~num_inputs:(num_inputs + 1)
      in
      Aig.Graph.import g ~src:remapped
    in
    let a = shift cone and b = shift bal in
    Aig.Graph.set_output g
      (Aig.Graph.mux g ~sel:(Aig.Graph.input g 0) ~t1:a ~t0:b);
    g
  in
  (* A contest-scale circuit of the kind the solvers actually emit: a
     bagged forest on a wide logic-cone benchmark, thousands of AND
     nodes with plenty of cross-tree sharing for the sweep to find. *)
  let forest_circuit () =
    let b = Benchgen.Suite.benchmark 52 in
    let inst =
      Benchgen.Suite.instantiate ~sizes:Benchgen.Suite.reduced_sizes ~seed:1 b
    in
    let rng = Random.State.make [| 52 |] in
    Forest.Bagging.to_aig ~num_inputs:b.Benchgen.Suite.num_inputs
      (Forest.Bagging.train ~rng Forest.Bagging.default_params
         inst.Benchgen.Suite.train)
  in
  let cases =
    (if quick then []
     else
       [ ("mux-of-rewrites-24in", fun () -> mux_of_rewrites ~seed:7 ~num_inputs:24);
         ( "cone-100in",
           fun () ->
             Benchgen.Logic_bench.cone ~seed:1052 ~num_inputs:100
               ~num_nodes:3000 () ) ])
    @ [ ("forest-ex52", forest_circuit) ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let samples =
    List.map
      (fun (name, build) ->
        let g = build () in
        let (swept, st), sweep_s = time (fun () -> Cec.sat_sweep g) in
        (* The sweep must be exact: equality is SAT-checked right here, and
           the check is timed — a refutation is a bug, [Unknown] a
           regression the BENCH row records. *)
        let verdict, cec_s = time (fun () -> Cec.equivalent g swept) in
        let verdict =
          match verdict with
          | Cec.Proved -> "proved"
          | Cec.Unknown _ -> "unknown"
          | Cec.Counterexample _ | Cec.Counterexample_at _ ->
              failwith (name ^ ": sweep result refuted by CEC")
        in
        {
          sw_name = name;
          sw_gates = st.Cec.nodes_before;
          sw_swept = st.Cec.nodes_after;
          sw_sat_calls = st.Cec.sat_calls;
          sw_sweep_s = sweep_s;
          sw_cec_s = cec_s;
          sw_verdict = verdict;
        })
      cases
  in
  Contest.Report.table
    ~header:
      [ "circuit"; "gates"; "swept"; "saved"; "sat calls"; "wall (s)";
        "cec (s)"; "verdict" ]
    (List.map
       (fun s ->
         [ s.sw_name;
           string_of_int s.sw_gates;
           string_of_int s.sw_swept;
           string_of_int (s.sw_gates - s.sw_swept);
           string_of_int s.sw_sat_calls;
           Printf.sprintf "%.2f" s.sw_sweep_s;
           Printf.sprintf "%.2f" s.sw_cec_s;
           s.sw_verdict ])
       samples);
  samples

(* ------------------------------------------------------------------ *)
(* CEGIS repair loop: iterations, counterexamples and wall per benchmark *)
(* ------------------------------------------------------------------ *)

let repair_bench ?(quick = false) () =
  Contest.Report.heading "CEGIS repair loop (team10 winner per benchmark)";
  let ids = if quick then [ 0; 30 ] else [ 0; 12; 30; 52; 74; 85 ] in
  let sizes = { Benchgen.Suite.train = 300; valid = 150; test = 150 } in
  let samples =
    List.map
      (fun id ->
        let b = Benchgen.Suite.benchmark id in
        let inst = Benchgen.Suite.instantiate ~sizes ~seed:1 b in
        let r = Contest.Teams.team10.Contest.Solver.solve inst in
        let t0 = Unix.gettimeofday () in
        let repaired, st =
          Repair.repair ~train:inst.Benchgen.Suite.train r.Contest.Solver.aig
        in
        let wall = Unix.gettimeofday () -. t0 in
        if Aig.Graph.num_ands (Aig.Opt.cleanup repaired) > Contest.Solver.gate_budget
        then failwith (b.Benchgen.Suite.name ^ ": repair busted the gate budget");
        {
          rp_name = b.Benchgen.Suite.name;
          rp_iterations = st.Repair.iterations;
          rp_cex = st.Repair.counterexamples;
          rp_errors_before = st.Repair.train_errors_before;
          rp_errors_after = st.Repair.train_errors_after;
          rp_stopped = Repair.stopped_to_string st.Repair.stopped;
          rp_wall_s = wall;
        })
      ids
  in
  Contest.Report.table
    ~header:
      [ "benchmark"; "iterations"; "cex"; "errors before"; "errors after";
        "stopped"; "wall (s)" ]
    (List.map
       (fun s ->
         [ s.rp_name;
           string_of_int s.rp_iterations;
           string_of_int s.rp_cex;
           string_of_int s.rp_errors_before;
           string_of_int s.rp_errors_after;
           s.rp_stopped;
           Printf.sprintf "%.2f" s.rp_wall_s ])
       samples);
  samples

(* ------------------------------------------------------------------ *)
(* Parallel-suite scaling: wall-clock of the same slice at 1 and N jobs *)
(* ------------------------------------------------------------------ *)

let parallel_scaling ~jobs () =
  Contest.Report.heading
    (Printf.sprintf "Parallel suite scaling (all teams, 4 benchmarks, %d domains)"
       jobs);
  let config =
    {
      E.sizes = { Benchgen.Suite.train = 300; valid = 150; test = 150 };
      seed = 1;
      ids = [ 0; 30; 74; 85 ];
    }
  in
  let time j =
    let t0 = Unix.gettimeofday () in
    let run = E.run_suite ~progress:false ~jobs:j config in
    (Unix.gettimeofday () -. t0, run)
  in
  let t1, r1 = time 1 in
  let tn, rn = if jobs > 1 then time jobs else (t1, r1) in
  if r1.E.per_team <> rn.E.per_team then
    failwith "parallel scaling: jobs=1 and jobs=N runs diverged";
  Contest.Report.table
    ~header:[ "jobs"; "wall (s)"; "speedup" ]
    [ [ "1"; Printf.sprintf "%.2f" t1; "1.00" ];
      [ string_of_int jobs;
        Printf.sprintf "%.2f" tn;
        Printf.sprintf "%.2f" (t1 /. tn) ] ];
  t1

(* A minimal timed suite slice for --quick runs (CI smoke): one benchmark,
   tiny splits, single domain. *)
let quick_suite_wall () =
  Contest.Report.heading "Quick suite slice (1 benchmark, tiny splits)";
  let config =
    {
      E.sizes = { Benchgen.Suite.train = 60; valid = 30; test = 30 };
      seed = 1;
      ids = [ 0 ];
    }
  in
  let t0 = Unix.gettimeofday () in
  ignore (E.run_suite ~progress:false ~jobs:1 config);
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "suite slice wall: %.2fs\n" dt;
  dt

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let perf_only = List.mem "--perf" args in
  let quick = List.mem "--quick" args in
  let rec extract_opt name = function
    | flag :: value :: rest when flag = name -> Some (value, rest)
    | x :: rest -> (
        match extract_opt name rest with
        | Some (v, r) -> Some (v, x :: r)
        | None -> None)
    | [] -> None
  in
  let ids_override, args =
    match extract_opt "--ids" args with
    | Some (spec, rest) -> (Some (parse_ids spec), rest)
    | None -> (None, args)
  in
  let seed, args =
    match extract_opt "--seed" args with
    | Some (spec, rest) -> (
        match int_of_string_opt spec with
        | Some s -> (s, rest)
        | None -> usage_error (Printf.sprintf "--seed expects an integer, got %S" spec))
    | None -> (1, args)
  in
  let json_path, args =
    match extract_opt "--json" args with
    | Some (path, rest) -> (Some path, rest)
    | None -> (None, args)
  in
  let jobs, args =
    match extract_opt "--jobs" args with
    | Some (spec, rest) -> (parse_positive_int ~flag:"--jobs" spec, rest)
    | None -> (
        match extract_opt "-j" args with
        | Some (spec, rest) -> (parse_positive_int ~flag:"-j" spec, rest)
        | None -> (Parallel.Pool.recommended_jobs (), args))
  in
  let flags, selected =
    List.partition (fun a -> String.length a >= 1 && a.[0] = '-') args
  in
  List.iter
    (fun f ->
      if f <> "--full" && f <> "--perf" && f <> "--quick" then
        usage_error
          (Printf.sprintf "unknown or valueless option %s" f))
    flags;
  let selected = if selected = [] then all_experiments else selected in
  List.iter
    (fun e ->
      if not (List.mem e all_experiments) then begin
        Printf.eprintf "unknown experiment %s; available: %s\n" e
          (String.concat " " all_experiments);
        exit 2
      end)
    selected;
  if perf_only || quick || json_path <> None then begin
    let kernels, gc_kernels = with_gc "kernels" (fun () -> perf ~quick ()) in
    let (loops, tiles), gc_loops =
      with_gc "loops" (fun () -> engine_loops ~quick ~jobs ())
    in
    let repair_rows, gc_repair =
      with_gc "repair" (fun () -> repair_bench ~quick ())
    in
    let sweep_rows, gc_sweep =
      with_gc "sweep" (fun () -> sat_sweep_perf ~quick)
    in
    let suite_wall_s, gc_suite =
      with_gc "suite" (fun () ->
          if quick then quick_suite_wall () else parallel_scaling ~jobs ())
    in
    let gc = [ gc_kernels; gc_loops; gc_repair; gc_sweep; gc_suite ] in
    gc_section gc;
    Option.iter
      (fun path ->
        write_bench_json path
          ~mode:(if quick then "quick" else "perf")
          ~seed ~kernels ~loops ~tiles ~repair:repair_rows ~sweep:sweep_rows ~gc
          ~suite_wall_s)
      json_path
  end
  else begin
    let shared_config = E.config_with ~full ?ids:ids_override ~seed () in
    let standalone_config =
      E.config_with ~full
        ~ids:(Option.value ~default:standalone_default_ids ids_override)
        ~seed ()
    in
    let shared =
      if List.exists (fun e -> List.mem e needs_shared_run) selected then
        Some (E.run_suite ~jobs shared_config)
      else None
    in
    let with_shared f = match shared with Some run -> f run | None -> () in
    List.iter
      (fun e ->
        match e with
        | "table3" -> with_shared E.table3
        | "fig1" -> E.fig1 ()
        | "fig2" -> with_shared E.fig2
        | "fig3" -> with_shared E.fig3
        | "fig4" -> with_shared E.fig4
        | "table4" | "fig16_17" ->
            (* one driver regenerates both; avoid running it twice *)
            if e = "table4" || not (List.mem "table4" selected) then
              E.table4_fig16_17 standalone_config
        | "table5" -> E.table5 standalone_config
        | "table6" -> E.table6 standalone_config
        | "table7" -> E.table7_cgp standalone_config
        | "fig5_6" -> E.fig5_6 standalone_config
        | "fig7" -> E.fig7 standalone_config
        | "fig11_12" -> E.fig11_12 standalone_config
        | "fig21" -> E.fig21 standalone_config
        | "fig32_33" -> with_shared E.fig32_33
        | "fig26_27" -> E.fig26_27 standalone_config
        | "appendix_bdd" -> E.appendix_bdd standalone_config
        | "repair" -> ignore (repair_bench ())
        | "ablations" -> E.ablations standalone_config
        | "corpus" ->
            (* Corpus factory smoke: write a generated corpus to disk, read
               it back, and run it through the grid — the same round trip
               the sharded CI pipeline exercises at 1000 benchmarks. *)
            let path = Filename.temp_file "lsml-bench" ".lsmlc" in
            Fun.protect
              ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
              (fun () ->
                let config =
                  { Corpus.Gen.default_config with Corpus.Gen.count = 50; seed }
                in
                Corpus.Gen.generate_file ~path config;
                Corpus.Format.with_file path (fun corpus ->
                    Printf.printf "Corpus factory smoke (%d benchmarks, team10):\n"
                      (Corpus.Format.count corpus);
                    let options =
                      {
                        Corpus.Runner.default_options with
                        Corpus.Runner.teams = [ Contest.Teams.team10 ];
                        jobs;
                        progress = false;
                      }
                    in
                    Corpus.Runner.print_report corpus
                      (Corpus.Runner.run options corpus)))
        | _ -> assert false)
      selected
  end
