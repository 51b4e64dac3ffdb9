(* The per-layer metrics every traced run reports, in a fixed order.  A
   layer the workload does not exercise reads 0 (e.g. the SAT counters on
   [grid], the learners on [exact] and [serve]); perfbench/README.md maps
   each one to the end-to-end metric and workload it should move. *)

open Common

let teams = List.init 10 (fun i -> (Printf.sprintf "contest.solve_s.team%d" (i + 1), "s"))

let all =
  teams
  @ [
      ("contest.pick_best_s", "s"); ("contest.enforce_budget_s", "s");
      ("nnet.train_s", "s"); ("dtree.train_s", "s"); ("forest.train_s", "s");
      ("lutnet.train_s", "s"); ("rules.train_s", "s"); ("sop.espresso_s", "s");
      ("cgp.evolve_s", "s"); ("featsel.rank_s", "s"); ("synth.to_aig_s", "s");
      ("aig.engine_words", "count"); ("aig.engine_early_exit_frac", "frac");
      ("aig.approx_replacements", "count"); ("aig.eval_ms", "ms");
      ("pool.efficiency", "frac");
      ("cec.sweep_ms", "ms"); ("cec.sweep_sat_calls", "count"); ("cec.sweep_merges", "count");
      ("cec.nodes_saved", "count"); ("cec.equiv_ms", "ms"); ("cec.p50_ms", "ms");
      ("cec.decided_frac", "frac");
      ("sat.conflicts", "count"); ("sat.propagations", "count");
      ("repair.spec_ms", "ms"); ("repair.repair_ms", "ms"); ("repair.iterations", "count");
      ("repair.counterexamples", "count"); ("repair.sat_conflicts", "count");
      ("repair.errors_before", "count"); ("repair.errors_after", "count");
      ("repair.p50_ms", "ms"); ("repair.exact_frac", "frac");
      ("serve.parse_ms", "ms"); ("resil.fingerprint_ms", "ms"); ("data.pla_parse_ms", "ms");
      ("aig.aag_parse_ms", "ms");
      ("serve.unattributed_ms.solve_hit", "ms"); ("serve.unattributed_ms.solve_cold", "ms");
      ("serve.unattributed_ms.eval", "ms"); ("serve.unattributed_ms.verify", "ms");
      ("serve.cache_hit_frac", "frac"); ("serve.queue_wait_p50_us", "us");
      ("serve.coalesced", "count"); ("serve.cache_log_bytes", "bytes");
      ("serve.cold_p50_ms", "ms"); ("serve.cold_p95_ms", "ms"); ("serve.hit_p50_ms", "ms");
      ("serve.eval_p50_ms", "ms"); ("serve.verify_p50_ms", "ms");
      ("gc.minor", "count"); ("gc.major", "count"); ("gc.peak_rss_mb", "MB");
      ("trace.overhead_pct", "%");
    ]

(* Every name of [all], measured value or 0.  A measured name missing from
   [all], or with another unit, is a bug of the benchmark itself. *)
let complete measured =
  List.iter
    (fun x ->
      match List.assoc_opt x.name all with
      | Some u when u = x.unit_ -> ()
      | _ -> invalid_arg ("Layers.complete: undeclared metric " ^ x.name))
    measured;
  List.map
    (fun (name, u) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name u 0.0)
    all
