(* The three workloads end to end: set-up (repeated, median reported),
   the timed part, the correctness checks and, when traced, the per-layer
   numbers.  [Tiny] sizes are the benchmark's own smoke test. *)

open Common

type size = Full | Tiny

let grid_config ~jobs = function
  | Full ->
      (* A third of the suite's reduced sizes (1500): one pass takes about
         10 s on 2 cores, so a run holds a warm-up pass and two or three
         timed ones and reports their median.  At 1500 one pass filled
         the run, a slow stretch of the machine decided it, and the
         traced run took about 120 s of the 180 s a run may take. *)
      { Grid.categories = Grid.all_categories;
        sizes = { Benchgen.Suite.train = 500; valid = 500; test = 500 }; jobs }
  | Tiny ->
      { Grid.categories = Benchgen.Suite.[ Divider; Comparator ];
        sizes = { Benchgen.Suite.train = 200; valid = 200; test = 200 }; jobs }

let exact_config = function
  | Full ->
      { Exact.count = 20; train = 300; forest = true }
  | Tiny ->
      { Exact.count = 2; train = 100; forest = false }

let serve_config ~clients = function
  | Full ->
      { Serve_wl.datasets = 24; min_kb = 20; max_kb = 300; test_samples = 500; clients }
  | Tiny ->
      { Serve_wl.datasets = 3; min_kb = 4; max_kb = 8; test_samples = 100; clients }

let setup_reps = function Full -> 3 | Tiny -> 1

(* The end-to-end metrics, the same names on every workload.  An op is
   the workload's unit of work: a team x benchmark task on [grid], a
   circuit through sweep, both checks and repair on [exact], a request on
   [serve].  The latency is the geometric mean over the ops of the
   workload's main operation (a task's solve, a circuit, a cold solve):
   it weighs every op alike, and a few ops slowed by the machine move it
   less than they move a single order statistic.  Accuracy (a mean) and
   AND gates are those of the circuits the workload hands back
   (perfbench/README.md); gates are a geometric mean shifted by one (so a
   0-gate constant counts), which one circuit flipping between a small
   and a large answer moves by a few percent.  Peak memory is a
   per-layer metric: on [grid] it spreads by a fifth between quartiles
   from run to run (garbage collection of two domains), too wide to hold
   a bound. *)
let e2e ~setup_s ~throughput ~op_ms ~acc_pct ~gates =
  [
    m "setup_s" "s" setup_s;
    m "throughput_per_s" "1/s" throughput;
    m "op_gmean_ms" "ms" (geomean op_ms);
    m "accuracy_pct" "%" acc_pct;
    m "gates_gmean" "count" (geomean (List.map (fun g -> g +. 1.0) gates) -. 1.0);
  ]

let rss_metric mb = m "gc.peak_rss_mb" "MB" mb

type outcome = {
  e2e : metric list;  (** untraced end-to-end metrics *)
  layers : metric list;  (** per-layer metrics measured (traced runs only) *)
}

let run_grid ~size ~jobs ~seed ~seconds ~trace lg =
  let cfg = grid_config ~jobs size in
  let instances, setup_s =
    repeated_setup ~reps:(setup_reps size) (timed_setup (fun () -> Grid.setup cfg ~seed))
  in
  let c = Grid.capture () in
  let rows, rates, task_ms, wall = Grid.timed c cfg ~seconds instances lg in
  Grid.check c lg instances rows;
  let acc_pct, gates = Grid.e2e_quality rows in
  let e2e = e2e ~setup_s ~throughput:(median rates) ~op_ms:task_ms ~acc_pct ~gates in
  let rss = peak_rss_mb () in
  let layers =
    if trace then rss_metric rss :: Grid.traced c cfg instances rows ~timed_wall:wall lg else []
  in
  { e2e; layers }

let run_exact ~size ~seed ~seconds ~trace lg =
  let cfg = exact_config size in
  let items, setup_s =
    repeated_setup ~reps:(setup_reps size) (timed_setup (fun () -> Exact.setup cfg ~seed))
  in
  let first, runs = Exact.timed ~seed ~seconds items lg in
  let acc_pct, gates = Exact.e2e_quality first in
  (* Throughput is the median over passes, so one pass slowed by the
     machine does not decide it. *)
  let per_pass f = median (List.map f runs) in
  let rss = peak_rss_mb () in
  let e2e =
    e2e ~setup_s
      ~throughput:(per_pass (fun p -> float_of_int (List.length p.Exact.item_ms) /. p.Exact.wall))
      ~op_ms:(List.concat_map (fun p -> p.Exact.item_ms) runs)
      ~acc_pct ~gates
  in
  let layers =
    if not trace then []
    else
      rss_metric rss :: Exact.kinds first runs
      @ Exact.traced ~seed items ~pass_wall:(per_pass (fun p -> p.Exact.wall)) lg
  in
  { e2e; layers }

let run_serve ~size ~lsml ~jobs ~seed ~seconds ~trace lg =
  let cfg = serve_config ~clients:jobs size in
  (* Each set-up repetition makes the inputs and starts a fresh daemon on an
     empty cache; the previous one is stopped outside the timing. *)
  let prev = ref None in
  let (datasets, d), setup_s =
    repeated_setup ~reps:(setup_reps size) (fun () ->
        Option.iter Serve_wl.stop_daemon !prev;
        let t0 = now () in
        let datasets = Serve_wl.make_datasets cfg in
        let d = Serve_wl.start_daemon ~lsml ~jobs in
        prev := Some d;
        ((datasets, d), now () -. t0))
  in
  let gc0 = gc_counts () in
  let samples, errors, wall = Serve_wl.drive cfg datasets d ~seed ~seconds in
  let gc1 = gc_counts () in
  let rss = peak_rss_mb ~pid:(string_of_int d.Serve_wl.pid) () in
  let layers =
    if not trace then []
    else begin
      (* The daemon's counters as the timed loop left them. *)
      let page = Serve.Client.scrape_metrics d.Serve_wl.listen in
      let cache_bytes = float_of_int (Unix.stat Serve_wl.cache_file).Unix.st_size in
      (* The same closed loop again with per-request span capture on: the
         serve layer's own tracing, whose cost is the overhead. *)
      let traced, errors2, wall2 =
        Serve_wl.drive ~trace:true cfg datasets d ~seed ~seconds
      in
      Serve_wl.check lg datasets traced errors2;
      let rate n w = float_of_int (List.length n) /. w in
      Serve_wl.layers datasets samples ~page ~cache_bytes
      @ Serve_wl.kinds samples
      @ [
          rss_metric rss;
          m "gc.minor" "count" (float_of_int (fst gc1 - fst gc0));
          m "gc.major" "count" (float_of_int (snd gc1 - snd gc0));
          m "trace.overhead_pct" "%"
            (100.0 *. (rate samples wall -. rate traced wall2) /. rate samples wall);
        ]
    end
  in
  Serve_wl.stop_daemon d;
  Serve_wl.check lg datasets samples errors;
  let acc_pct, gates = Serve_wl.e2e_quality samples in
  let e2e =
    e2e ~setup_s ~throughput:(float_of_int (List.length samples) /. wall)
      ~op_ms:(Serve_wl.latencies Serve_wl.Cold samples) ~acc_pct ~gates
  in
  { e2e; layers }

