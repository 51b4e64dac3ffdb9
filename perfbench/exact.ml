(* Workload [exact]: the verification and repair path.  Set-up learns
   circuits with three teams on a seeded draw of corpus-family specs
   (label-noise sweep 0 and 50 permille) and adds one contest-scale forest
   circuit; the timed part sweeps, checks and repairs each of them.  It is
   SAT-bound and runs no learners. *)

open Common
module G = Aig.Graph
module S = Benchgen.Suite
module F = Benchgen.Families

type config = {
  count : int;  (** family specs drawn; three circuits each *)
  train : int;  (** training samples per spec *)
  forest : bool;  (** add the forest circuit on ex52 *)
}

type item = {
  name : string;
  circuit : G.t;
  train_set : Data.Dataset.t;
  minterm : bool array;  (** the input the flipped copy differs on *)
  repairable : bool;
      (** the forest is not repaired: on its 1500 samples one repair takes
          about 20 s, longer than a whole run *)
}

let teams = Contest.Teams.[ team1; team8; team10 ]

let random_minterm st n = Array.init n (fun _ -> Random.State.bool st)

(* [g] with its output complemented on exactly one input vector. *)
let flip_minterm g minterm =
  let n = G.num_inputs g in
  let h = G.create ~num_inputs:n () in
  let out = G.import h ~src:g in
  let hit =
    G.and_list h (List.init n (fun i -> G.lit_notif (G.input h i) (not minterm.(i))))
  in
  G.set_output h (G.xor_ h out hit);
  h

(* One spec per (family, noise level) slot, the first of a family draw
   that has at most [max_inputs] inputs.  The circuits are a fixed
   population: the draw uses [structure_seed], and the run seed picks the
   simulation patterns of the sweep, the seed of repair and the flipped
   minterms.  Runs that also re-drew the population spread by about a
   third between quartiles in throughput and median CEC time: check and
   repair costs grow steeply with width, and a CEC near the fold/SAT
   boundary sits at the median.  Wider learned circuits (18-24 inputs,
   1500-2100 gates) often end their check against the swept copy at the
   conflict limit, each costing the whole limit (about 3 s), so a run's
   throughput would be decided by how many of them it drew; the forest
   circuit keeps one such check in every run. *)
let max_inputs = 12

let structure_seed = 1

let draw_specs cfg =
  let pool = F.generate ~noise_sweep:[ 0; 50 ] ~seed:structure_seed ~count:(40 * cfg.count) () in
  let families = Array.of_list F.all_families in
  let nf = Array.length families in
  let rec pick j used acc =
    if j = cfg.count then List.rev acc
    else begin
      let family = families.(j mod nf) and noise = if j / nf mod 2 = 0 then 0 else 50 in
      let fits i (sp : F.spec) =
        sp.F.family = family && sp.F.noise_permille = noise && sp.F.num_inputs <= max_inputs
        && not (List.mem i used)
      in
      match List.find_opt (fun (i, sp) -> fits i sp) (List.mapi (fun i sp -> (i, sp)) pool) with
      | Some (i, sp) -> pick (j + 1) (i :: used) (sp :: acc)
      | None -> invalid_arg "Exact.draw_specs: no spec fits the width cap"
    end
  in
  pick 0 [] []

let setup cfg ~seed =
  let specs = draw_specs cfg in
  let sizes = { S.train = cfg.train; valid = cfg.train; test = 1 } in
  let st = Random.State.make [| 0x65786163; seed |] in
  let learned =
    List.concat
      (List.mapi
         (fun id spec ->
           let inst = F.instantiate ~sizes ~id spec in
           List.map
             (fun (solver : Contest.Solver.t) ->
               let r = solver.Contest.Solver.solve inst in
               {
                 name = F.slug spec ^ "/" ^ solver.Contest.Solver.name;
                 circuit = r.Contest.Solver.aig;
                 train_set = inst.S.train;
                 minterm = random_minterm st (G.num_inputs r.Contest.Solver.aig);
                 repairable = true;
               })
             teams)
         specs)
  in
  let forest =
    if not cfg.forest then []
    else begin
      let b = S.benchmark 52 in
      let sizes = { S.train = 1500; valid = 1; test = 1 } in
      (* Fixed, seed-independent: the 3637-gate forest whose check against
         its own swept copy is the recorded baseline (README.md). *)
      let inst = S.instantiate ~sizes ~seed:1 b in
      let g =
        Forest.Bagging.to_aig ~num_inputs:b.S.num_inputs
          (Forest.Bagging.train ~rng:(Random.State.make [| 52 |])
             Forest.Bagging.default_params inst.S.train)
      in
      [ { name = "forest-ex52"; circuit = g; train_set = inst.S.train;
          minterm = random_minterm st b.S.num_inputs; repairable = false } ]
    end
  in
  learned @ forest

type outcome = {
  sweep_ms : float;
  sweep : Cec.sweep_stats;
  swept_ms : float;  (** CEC against the swept copy *)
  swept : Cec.result;
  flipped_ms : float;  (** CEC against the one-minterm flip *)
  flipped : Cec.result;
  repair : (G.t * Repair.stats * float) option;  (** circuit, stats, ms *)
}

let run_item ~seed it =
  let (swept_g, sweep), sweep_s = time (fun () -> Cec.sat_sweep ~seed it.circuit) in
  let (swept, _), swept_s =
    time (fun () -> Cec.equivalent_stats ~conflict_limit it.circuit swept_g)
  in
  let flip = flip_minterm it.circuit it.minterm in
  let (flipped, _), flipped_s =
    time (fun () -> Cec.equivalent_stats ~conflict_limit it.circuit flip)
  in
  let repair =
    if not it.repairable then None
    else
      let config = { Repair.default_config with Repair.seed } in
      let (g, st), dt = time (fun () -> Repair.repair ~config ~train:it.train_set it.circuit) in
      Some (g, st, 1000.0 *. dt)
  in
  {
    sweep_ms = 1000.0 *. sweep_s;
    sweep;
    swept_ms = 1000.0 *. swept_s;
    swept;
    flipped_ms = 1000.0 *. flipped_s;
    flipped;
    repair;
  }

let decided = function Cec.Unknown _ -> false | _ -> true

let train_errors g d =
  let n = Data.Dataset.num_samples d in
  n - int_of_float (Float.round (oracle_accuracy g d *. float_of_int n))

(* The checks of one item, none of which trusts Cec or Repair: verdicts
   against the known answers, counterexamples by simulating both sides,
   repair by re-simulating the training set and recounting gates. *)
let check_item it o =
  let flip = flip_minterm it.circuit it.minterm in
  let swept_ok =
    match o.swept with
    | Cec.Proved | Cec.Unknown _ -> None
    | Cec.Counterexample _ | Cec.Counterexample_at _ ->
        Some "swept copy refuted, but a sweep preserves the function"
  in
  let flipped_ok =
    match o.flipped with
    | Cec.Unknown _ -> None
    | Cec.Proved -> Some "one-minterm flip proved equivalent"
    | Cec.Counterexample cex | Cec.Counterexample_at (_, cex) ->
        if cex <> it.minterm then Some "counterexample is not the flipped minterm"
        else if G.eval it.circuit cex = G.eval flip cex then
          Some "counterexample does not distinguish the circuits"
        else None
  in
  let repair_ok =
    match o.repair with
    | None -> None
    | Some (repaired, _, _) ->
        let before = train_errors it.circuit it.train_set in
        let after = train_errors repaired it.train_set in
        let gates = reachable_ands repaired in
        if reachable_ands it.circuit <= Contest.Solver.gate_budget && after > before then
          Some (Printf.sprintf "repair raised training errors %d -> %d" before after)
        else if gates > Contest.Solver.gate_budget then
          Some (Printf.sprintf "repaired circuit has %d gates" gates)
        else None
  in
  List.filter_map
    (Option.map (fun p -> it.name ^ ": " ^ p))
    [ swept_ok; flipped_ok; repair_ok ]

let run_pass ~seed items = List.map (fun it -> (it, run_item ~seed it)) items

let check lg results =
  List.iter
    (fun (it, o) ->
      match check_item it o with
      | [] -> attempt lg true ~what:""
      | ps ->
          attempt lg false ~what:(List.hd ps);
          List.iter (problem lg) (List.tl ps))
    results

(* The timings of one pass; its circuits are dropped once checked, so
   the number of passes does not change the peak memory. *)
type pass = {
  wall : float;
  item_ms : float list;  (** per circuit: sweep, both checks and repair *)
  cec_ms : float list;
  repair_ms : float list;
}

(* One circuit's time: sweep, both checks and repair. *)
let item_ms o =
  o.sweep_ms +. o.swept_ms +. o.flipped_ms
  +. match o.repair with Some (_, _, ms) -> ms | None -> 0.0

let repairs results = List.filter_map (fun (_, o) -> o.repair) results

(* Whole passes over the items (see [Common.passes]), each checked as it
   ends.  Returns the first pass's results, which later passes repeat
   exactly, and every pass's timings. *)
let timed ~seed ~seconds items lg =
  let first = ref None in
  let runs, _ =
    passes ~seconds (fun () ->
        let results, wall = time (fun () -> run_pass ~seed items) in
        check lg results;
        if !first = None then first := Some results;
        {
          wall;
          item_ms = List.map (fun (_, o) -> item_ms o) results;
          cec_ms = List.concat_map (fun (_, o) -> [ o.swept_ms; o.flipped_ms ]) results;
          repair_ms = List.map (fun (_, _, ms) -> ms) (repairs results);
        })
  in
  (Option.get !first, runs)

(* Mean training accuracy (in percent, by the naive simulator) and the
   AND gates of each circuit repair hands back, over one pass. *)
let e2e_quality first =
  let repaired =
    List.filter_map
      (fun (it, o) -> Option.map (fun (g, _, _) -> (it, g)) o.repair)
      first
  in
  let mean f = sum (List.map f repaired) /. float_of_int (List.length repaired) in
  ( 100.0 *. mean (fun (it, g) -> oracle_accuracy g it.train_set),
    List.map (fun (_, g) -> float_of_int (reachable_ands g)) repaired )

(* Per-kind figures of the timed passes: latencies over every pass,
   verdict and repair shares over the first pass. *)
let kinds first runs =
  let verdicts = List.concat_map (fun (_, o) -> [ o.swept; o.flipped ]) first in
  let n_dec = List.length (List.filter decided verdicts) in
  let first_repairs = repairs first in
  let n_exact =
    List.length (List.filter (fun (_, st, _) -> st.Repair.stopped = Repair.Exact) first_repairs)
  in
  [
    m "cec.p50_ms" "ms" (median (List.concat_map (fun p -> p.cec_ms) runs));
    m "cec.decided_frac" "frac" (float_of_int n_dec /. float_of_int (List.length verdicts));
    m "repair.p50_ms" "ms" (median (List.concat_map (fun p -> p.repair_ms) runs));
    m "repair.exact_frac" "frac"
      (float_of_int n_exact /. float_of_int (List.length first_repairs));
  ]

(* Per-layer numbers of [exact]: one traced pass, summed over circuits. *)
let traced ~seed items ~pass_wall lg =
  Telemetry.reset ();
  Telemetry.enable ();
  let gc0 = gc_counts () in
  let results, wall = time (fun () -> run_pass ~seed items) in
  let gc1 = gc_counts () in
  Telemetry.disable ();
  check lg results;
  let spec_s =
    sum
      (List.filter_map
         (fun it ->
           if it.repairable then Some (snd (time (fun () -> Repair.spec_of_dataset it.train_set)))
           else None)
         items)
  in
  let fsum f = sum (List.map (fun (_, o) -> f o) results) in
  let isum f = fsum (fun o -> float_of_int (f o)) in
  let rsum f = sum (List.map (fun (_, st, _) -> float_of_int (f st)) (repairs results)) in
  [
    m "cec.sweep_ms" "ms" (fsum (fun o -> o.sweep_ms));
    m "cec.sweep_sat_calls" "count" (isum (fun o -> o.sweep.Cec.sat_calls));
    m "cec.sweep_merges" "count" (isum (fun o -> o.sweep.Cec.merges));
    m "cec.nodes_saved" "count"
      (isum (fun o -> o.sweep.Cec.nodes_before - o.sweep.Cec.nodes_after));
    m "cec.equiv_ms" "ms" (fsum (fun o -> o.swept_ms +. o.flipped_ms));
    m "sat.conflicts" "count" (float_of_int (counter "sat.conflicts"));
    m "sat.propagations" "count" (float_of_int (counter "sat.propagations"));
    m "repair.spec_ms" "ms" (1000.0 *. spec_s);
    m "repair.repair_ms" "ms" (sum (List.map (fun (_, _, ms) -> ms) (repairs results)));
    m "repair.iterations" "count" (rsum (fun st -> st.Repair.iterations));
    m "repair.counterexamples" "count" (rsum (fun st -> st.Repair.counterexamples));
    m "repair.sat_conflicts" "count" (rsum (fun st -> st.Repair.sat_conflicts));
    m "repair.errors_before" "count" (rsum (fun st -> st.Repair.train_errors_before));
    m "repair.errors_after" "count" (rsum (fun st -> st.Repair.train_errors_after));
    m "aig.engine_words" "count" (float_of_int (counter "engine.words_simulated"));
    m "aig.approx_replacements" "count" (float_of_int (counter "approx.replacements"));
    m "gc.minor" "count" (float_of_int (fst gc1 - fst gc0));
    m "gc.major" "count" (float_of_int (snd gc1 - snd gc0));
    m "trace.overhead_pct" "%" (100.0 *. (wall -. pass_wall) /. pass_wall);
  ]
