let gate_budget = 5000

type result = {
  aig : Aig.Graph.t;
  technique : string;
}

type t = {
  name : string;
  techniques : string list;
  solve : Benchgen.Suite.instance -> result;
}

(* Scoring reuses this domain's simulation engine: candidate evaluation is
   the innermost loop of every solver, and the engine's arena makes it
   allocation-free.  Every scoring path in the solver — including Cv fold
   scoring — runs the same tiled kernel; bit-identical to
   [Aig.Sim.accuracy]. *)
let evaluate aig d =
  Aig.Sim.Engine.accuracy (Aig.Sim.Engine.for_domain ()) aig
    (Data.Dataset.columns d) ~expected:(Data.Dataset.outputs d)

let enforce_budget ?patterns ?(sweep = false) ~seed aig =
  let aig = Aig.Opt.cleanup aig in
  (* SAT sweeping is exact, so spending it before the (lossy) approximation
     pass buys budget headroom for free.  Limits are kept small: this runs
     once per candidate inside the solver pipeline. *)
  let aig =
    if sweep && Aig.Graph.num_ands aig > 0 then
      fst
        (Cec.sat_sweep ~num_patterns:256 ~conflict_limit:200 ~rounds:4 ~seed
           aig)
    else aig
  in
  if Aig.Graph.num_ands aig <= gate_budget then aig
  else
    let st = Random.State.make [| 0xacc; seed |] in
    fst (Aig.Approx.approximate ?patterns st aig ~budget:gate_budget)

let constant_result d =
  let value, _ = Data.Dataset.constant_accuracy d in
  let g = Aig.Graph.create ~num_inputs:(Data.Dataset.num_inputs d) () in
  Aig.Graph.set_output g
    (if value then Aig.Graph.const_true else Aig.Graph.const_false);
  { aig = g; technique = "constant" }

let pick_best ?sweep ~valid candidates =
  (* An empty list can legitimately reach us when every candidate of a
     guarded portfolio crashed or timed out; degrade to the constant
     instead of raising from inside Teams.solve. *)
  if candidates = [] then constant_result valid
  else begin
    let columns = Data.Dataset.columns valid in
    let expected = Data.Dataset.outputs valid in
    (* Budget enforcement stays a per-candidate span: it can rewrite the
       circuit (sweep/approximate), and its per-technique cost is what a
       trace should show. *)
    let prepared =
      List.map
        (fun (technique, aig) ->
          Telemetry.span_ret ~cat:"candidate" "candidate.eval"
            ~args:(fun (_, g) ->
              [
                ("technique", Telemetry.Str technique);
                ("gates", Telemetry.Int (Aig.Graph.num_ands g));
              ])
          @@ fun () ->
          ( technique,
            enforce_budget ~patterns:columns ?sweep
              ~seed:(Hashtbl.hash technique) aig ))
        candidates
    in
    (* An incumbent loop over the tiled kernel: each candidate is scored
       with the best count so far as its limit, so a loser is abandoned
       after its first tiles of validation words.  Candidates are
       compared on their disagreement COUNT rather than the accuracy
       float: with a fixed pattern count the orders coincide
       ([acc = 1 - d/n] is strictly decreasing in [d]).  Pruning needs a
       strictly greater count than the incumbent's, so every candidate
       that beats or ties it comes back exact, and the lexicographic
       (count, gates) fold below — first seen wins exact ties — picks the
       same winner as a fold over every exact count. *)
    let engine = Aig.Sim.Engine.for_domain () in
    let limit = ref max_int in
    let best = ref None in
    List.iter
      (fun (technique, aig) ->
        match
          Aig.Sim.Engine.disagreements ~limit:!limit engine aig columns
            ~expected
        with
        | None -> () (* provably worse than the incumbent *)
        | Some d -> (
            limit := min !limit d;
            let gates = Aig.Graph.num_ands aig in
            match !best with
            | None -> best := Some (d, gates, technique, aig)
            | Some (bd, bg, _, _) ->
                if d < bd || (d = bd && gates < bg) then
                  best := Some (d, gates, technique, aig)))
      prepared;
    match !best with
    | Some (_, _, technique, aig) -> { aig; technique }
    | None -> assert false (* the first candidate always comes back exact *)
  end

type guarded = {
  result : result;
  status : Resil.Guard.status;
  timeouts : int;
  crashes : int;
  fell_back : bool;
}

let status_name = function
  | Resil.Guard.Completed -> "completed"
  | Resil.Guard.Recovered -> "recovered"
  | Resil.Guard.Timed_out -> "timed_out"
  | Resil.Guard.Crashed _ -> "crashed"

let solve_guarded ?time_limit ?fuel ~key solver
    (inst : Benchgen.Suite.instance) =
  Telemetry.span_ret ~cat:"solver" "solve"
    ~args:(fun g ->
      [
        ("team", Telemetry.Str solver.name);
        ("bench", Telemetry.Str inst.Benchgen.Suite.spec.Benchgen.Suite.name);
        ("technique", Telemetry.Str g.result.technique);
        ("gates", Telemetry.Int (Aig.Graph.num_ands g.result.aig));
        ("status", Telemetry.Str (status_name g.status));
      ])
  @@ fun () ->
  let outcome =
    Resil.Guard.run ?time_limit ?fuel ~key
      ~fallback:(fun () -> constant_result inst.Benchgen.Suite.train)
      (fun ~attempt:_ -> solver.solve inst)
  in
  {
    result = outcome.Resil.Guard.value;
    status = outcome.Resil.Guard.status;
    timeouts = outcome.Resil.Guard.timeouts;
    crashes = outcome.Resil.Guard.crashes;
    fell_back = outcome.Resil.Guard.fell_back;
  }

type pareto_point = {
  gates : int;
  accuracy : float;
  source : string;
  circuit : Aig.Graph.t;
}

let pareto_front ?(budgets = [ 30; 60; 125; 250; 500; 1000; 2000; 5000 ])
    ~valid ~seed candidates =
  let columns = Data.Dataset.columns valid in
  let expected = Data.Dataset.outputs valid in
  let engine = Aig.Sim.Engine.for_domain () in
  let points =
    List.concat_map
      (fun (name, aig) ->
        let aig = Aig.Opt.cleanup aig in
        let full_gates = Aig.Graph.num_ands aig in
        let shrunk =
          List.filter_map
            (fun budget ->
              if budget >= full_gates then None
              else begin
                let st = Random.State.make [| 0x9a2e70; seed; budget |] in
                let smaller, _ =
                  Aig.Approx.approximate ~patterns:columns st aig ~budget
                in
                Some (Printf.sprintf "%s@%d" name budget, smaller)
              end)
            budgets
        in
        (* The candidate and every rung of its shrunken budget ladder
           score exactly (no limit) on this domain's engine. *)
        List.map
          (fun (source, circuit) ->
            {
              gates = Aig.Graph.num_ands circuit;
              accuracy =
                Aig.Sim.Engine.accuracy engine circuit columns ~expected;
              source;
              circuit;
            })
          ((name, aig) :: shrunk))
      candidates
  in
  (* Keep the non-dominated points: scan by increasing gate count and keep
     strict accuracy improvements. *)
  let ordered =
    List.sort
      (fun a b -> compare (a.gates, -1.0 *. a.accuracy) (b.gates, -1.0 *. b.accuracy))
      points
  in
  let front, _ =
    List.fold_left
      (fun (kept, best_acc) p ->
        if p.accuracy > best_acc +. 1e-12 then (p :: kept, p.accuracy)
        else (kept, best_acc))
      ([], neg_infinity) ordered
  in
  List.rev front
