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
   allocation-free.  Routed through the batched tiled kernel (batch of
   one) so every scoring path in the solver — including Cv fold scoring —
   exercises the same code; bit-identical to [Aig.Sim.accuracy]. *)
let evaluate aig d =
  let engine = Aig.Sim.Engine.for_domain () in
  (Aig.Sim.Engine.accuracy_batch engine [| aig |] (Data.Dataset.columns d)
     ~expected:(Data.Dataset.outputs d)).(0)

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
    (* One batched, cache-blocked pass scores the whole portfolio: tiles
       of validation words are loaded once and stay hot while every
       candidate's fused kernels run over them, and the cross-chunk limit
       abandons losing candidates after their first tiles.  Candidates
       are compared on their disagreement COUNT rather than the accuracy
       float: with a fixed pattern count the orders coincide
       ([acc = 1 - d/n] is strictly decreasing in [d]).  [Some] counts
       are exact and the minimum always survives pruning, so the
       lexicographic (count, gates) fold below — first seen wins exact
       ties — picks the same winner as a fold over every exact
       count. *)
    let graphs = Array.of_list (List.map snd prepared) in
    let engine = Aig.Sim.Engine.for_domain () in
    let counts =
      Aig.Sim.Engine.disagreements_batch engine graphs columns ~expected
    in
    let best = ref None in
    List.iteri
      (fun i (technique, aig) ->
        match counts.(i) with
        | None -> () (* provably worse than a completed candidate *)
        | Some d -> (
            let gates = Aig.Graph.num_ands aig in
            match !best with
            | None -> best := Some (d, gates, technique, aig)
            | Some (bd, bg, _, _) ->
                if d < bd || (d = bd && gates < bg) then
                  best := Some (d, gates, technique, aig)))
      prepared;
    match !best with
    | Some (_, _, technique, aig) -> { aig; technique }
    | None -> assert false (* the minimum count always survives pruning *)
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
        (* The candidate and its whole shrunken budget ladder score in a
           single batched pass over the validation columns. *)
        let ladder = (name, aig) :: shrunk in
        let graphs = Array.of_list (List.map snd ladder) in
        let accs =
          Aig.Sim.Engine.accuracy_batch engine graphs columns ~expected
        in
        List.mapi
          (fun i (source, circuit) ->
            {
              gates = Aig.Graph.num_ands circuit;
              accuracy = accs.(i);
              source;
              circuit;
            })
          ladder)
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
