module S = Benchgen.Suite
module D = Data.Dataset
module G = Aig.Graph

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let merged (i : S.instance) = D.append i.S.train i.S.valid

let tree_aig ~num_inputs t = Synth.Tree_synth.aig_of_tree ~num_inputs t

(* Each candidate of a portfolio is built under [Guard.capture]: a crash
   (including an injected fault) drops that candidate instead of aborting
   the whole team, while a budget timeout still propagates so the
   enclosing [Solver.solve_guarded] can classify it.  [pick_best] accepts
   the empty list (degrading to the constant), so a team whose every
   candidate crashed still answers. *)
let fault_candidate = Resil.Fault.declare "teams.candidate"

let guarded thunks =
  List.filter_map
    (fun thunk ->
      match
        (* Span per candidate model: the technique name and model size are
           the args (a dropped candidate records its crash instead). *)
        Telemetry.span_ret ~cat:"candidate" "candidate.train"
          ~args:(fun r ->
            match r with
            | Ok (name, aig) ->
                [
                  ("technique", Telemetry.Str name);
                  ("gates", Telemetry.Int (G.num_ands aig));
                ]
            | Error (c : Resil.Guard.crash) ->
                [ ("dropped", Telemetry.Str c.Resil.Guard.exn) ])
        @@ fun () ->
        Resil.Guard.capture (fun () ->
            Resil.Fault.point fault_candidate;
            thunk ())
      with
      | Ok candidate -> Some candidate
      | Error _ -> None)
    thunks

(* Espresso is quadratic in the input count per cube; the teams only ran
   it where two-level minimization is plausible, so gate it on width. *)
let espresso_width_limit = 40

let espresso_aig d =
  let config = { Sop.Espresso.default_config with Sop.Espresso.max_passes = 1 } in
  let cover, complemented = Sop.Espresso.minimize_best_polarity ~config d in
  Synth.Sop_synth.aig_of_cover ~complemented cover

let espresso_candidate d =
  if D.num_inputs d > espresso_width_limit then None
  else Some ("espresso", espresso_aig d)

let espresso_thunks d =
  if D.num_inputs d > espresso_width_limit then []
  else [ (fun () -> ("espresso", espresso_aig d)) ]

(* Rank features by the average of their mutual-information and chi2
   ranks (a cheap stand-in for Team 4's two-level model ensemble). *)
let ranked_features d =
  let rank_of scores =
    let idx = Array.init (Array.length scores) Fun.id in
    Array.sort (fun a b -> compare scores.(b) scores.(a)) idx;
    let rank = Array.make (Array.length scores) 0 in
    Array.iteri (fun pos f -> rank.(f) <- pos) idx;
    rank
  in
  let r1 = rank_of (Featsel.scores Featsel.Mutual_info d) in
  let r2 = rank_of (Featsel.scores Featsel.Chi2 d) in
  let combined = Array.mapi (fun f a -> a + r2.(f)) r1 in
  let idx = Array.init (Array.length combined) Fun.id in
  Array.sort (fun a b -> compare combined.(a) combined.(b)) idx;
  idx

let top_k_features d k =
  let idx = ranked_features d in
  Array.sub idx 0 (min k (Array.length idx))

(* Train a model on selected features and lift its AIG back to the full
   input space. *)
let lift_aig ~selection ~num_inputs aig =
  Aig.Opt.remap_inputs aig ~map:(fun i -> selection.(i)) ~num_inputs

let dt_params ?max_depth ?(min_samples = 2) () =
  {
    Dtree.Train.default_params with
    Dtree.Train.max_depth;
    min_samples;
  }

(* ------------------------------------------------------------------ *)
(* Team 1: best of espresso / LUT network / random forest / matching   *)
(* ------------------------------------------------------------------ *)

let team1 =
  let solve (i : S.instance) =
    let d = merged i in
    let num_inputs = D.num_inputs d in
    match Fmatch.find i.S.train with
    | Some m -> { Solver.aig = m.Fmatch.build (); technique = m.Fmatch.name }
    | None ->
        let rng = Random.State.make [| 1; i.S.spec.S.id |] in
        let lutnets =
          List.map
            (fun (layers, width) () ->
              let params =
                {
                  Lutnet.default_params with
                  Lutnet.num_layers = layers;
                  layer_width = width;
                  seed = i.S.spec.S.id;
                }
              in
              ( Printf.sprintf "lutnet-%dx%d" layers width,
                Lutnet.to_aig (Lutnet.train params i.S.train) ))
            [ (2, 16); (4, 32) ]
        in
        let forests =
          List.map
            (fun trees () ->
              let params =
                { Forest.Bagging.default_params with Forest.Bagging.num_trees = trees }
              in
              ( Printf.sprintf "forest-%d" trees,
                Forest.Bagging.to_aig ~num_inputs
                  (Forest.Bagging.train ~rng params i.S.train) ))
            [ 5; 9; 15 ]
        in
        let candidates =
          guarded (espresso_thunks i.S.train @ lutnets @ forests)
        in
        Solver.pick_best ~valid:i.S.valid candidates
  in
  {
    Solver.name = "team1";
    techniques = [ "trees"; "lut-network"; "espresso"; "standard-functions" ];
    solve;
  }

(* ------------------------------------------------------------------ *)
(* Team 2: J48-style trees and PART rule sets                          *)
(* ------------------------------------------------------------------ *)

let team2 =
  let solve (i : S.instance) =
    let num_inputs = D.num_inputs i.S.train in
    let trees =
      List.concat_map
        (fun min_samples ->
          List.map
            (fun depth () ->
              let t =
                Dtree.Train.train (dt_params ~max_depth:depth ~min_samples ()) i.S.train
              in
              ( Printf.sprintf "j48-m%d-d%d" min_samples depth,
                tree_aig ~num_inputs t ))
            [ 10; 15 ])
        [ 2; 5; 10 ]
    in
    let rules =
      List.map
        (fun min_coverage () ->
          let params =
            { Rules.Part.default_params with Rules.Part.min_coverage }
          in
          ( Printf.sprintf "part-c%d" min_coverage,
            Rules.Part.to_aig ~num_inputs (Rules.Part.train params i.S.train) ))
        [ 2; 5 ]
    in
    Solver.pick_best ~valid:i.S.valid (guarded (trees @ rules))
  in
  { Solver.name = "team2"; techniques = [ "trees" ]; solve }

(* ------------------------------------------------------------------ *)
(* Team 3: fringe DT / DT / pruned-MLP ensemble over three re-splits   *)
(* ------------------------------------------------------------------ *)

let mlp_lut_candidate ~seed ~train ~valid d =
  (* Top-16 features, small MLP, prune to fan-in 8, neurons to LUTs. *)
  let k = min 16 (D.num_inputs d) in
  let selection = top_k_features d k in
  let proj_train = Featsel.project train selection in
  let proj_valid = Featsel.project valid selection in
  let params =
    {
      Nnet.Mlp.default_params with
      Nnet.Mlp.hidden = [ 16; 8 ];
      epochs = 15;
      seed;
    }
  in
  let net = Nnet.Mlp.train ~validation:proj_valid params proj_train in
  let retrain = { params with Nnet.Mlp.epochs = 5 } in
  let pruned =
    Nnet.Prune.prune_to_fanin ~rounds:2 ~retrain ~max_fanin:8 net proj_train
  in
  let aig = Nnet.Neuron_lut.to_aig ~num_inputs:k pruned in
  lift_aig ~selection ~num_inputs:(D.num_inputs d) aig

let team3 =
  let solve (i : S.instance) =
    let all = merged i in
    let num_inputs = D.num_inputs all in
    let pick_for_config c =
      let st = Random.State.make [| 3; i.S.spec.S.id; c |] in
      let train, valid = D.split_ratio st all ~ratio:(2.0 /. 3.0) in
      let candidates =
        guarded
          [ (fun () ->
              let fringe_model =
                Dtree.Fringe.train ~max_rounds:4
                  ~max_features:(num_inputs + 60)
                  (dt_params ~min_samples:5 ())
                  train
              in
              ( "fringe-dt",
                Synth.Tree_synth.aig_of_fringe_model ~num_inputs fringe_model ));
            (fun () ->
              let plain =
                Dtree.Train.train (dt_params ~max_depth:12 ~min_samples:5 ()) train
              in
              ("dt", tree_aig ~num_inputs plain));
            (fun () ->
              ( "mlp-lut",
                mlp_lut_candidate ~seed:(i.S.spec.S.id + c) ~train ~valid all )) ]
      in
      (Solver.pick_best ~valid candidates).Solver.aig
    in
    let a = pick_for_config 0 and b = pick_for_config 1 and c = pick_for_config 2 in
    let voted = Aig.Opt.vote3 a b c in
    let aig = Solver.enforce_budget ~seed:i.S.spec.S.id voted in
    { Solver.aig; technique = "ensemble3" }
  in
  { Solver.name = "team3"; techniques = [ "trees"; "neural-nets" ]; solve }

(* ------------------------------------------------------------------ *)
(* Team 4: feature selection + MLP + subspace expansion                *)
(* ------------------------------------------------------------------ *)

let team4 =
  let solve (i : S.instance) =
    let d = i.S.train in
    let num_inputs = D.num_inputs d in
    let candidate fn k seed =
      let selection =
        match fn with
        | `Combined -> top_k_features d k
        | `Chi2 -> Featsel.select_k_best Featsel.Chi2 ~k d
      in
      let k = Array.length selection in
      let proj = Featsel.project d selection in
      let proj_valid = Featsel.project i.S.valid selection in
      let params =
        {
          Nnet.Mlp.default_params with
          Nnet.Mlp.hidden = [ 24; 12 ];
          epochs = 30;
          seed;
        }
      in
      let net = Nnet.Mlp.train ~validation:proj_valid params proj in
      (* Subspace expansion: predict the full 2^k reduced hypercube and
         synthesize it exactly; every pruned input is a don't care by
         construction. *)
      let truth =
        Array.init (1 lsl k) (fun e ->
            let v = Array.init k (fun b -> if e lsr b land 1 = 1 then 1.0 else 0.0) in
            Nnet.Mlp.probability net v >= 0.5)
      in
      let g = G.create ~num_inputs:k () in
      G.set_output g
        (Synth.Lut_synth.lit_of_lut g ~inputs:(Array.init k (G.input g)) ~truth);
      let lifted = lift_aig ~selection ~num_inputs (Aig.Opt.cleanup g) in
      (Printf.sprintf "afn-%s-k%d" (match fn with `Combined -> "mix" | `Chi2 -> "chi2") k,
       lifted)
    in
    let ks = if num_inputs <= 10 then [ num_inputs ] else [ 10; 12 ] in
    let candidates =
      guarded
        (List.concat_map
           (fun k ->
             [ (fun () -> candidate `Combined (min k num_inputs) (i.S.spec.S.id + k));
               (fun () -> candidate `Chi2 (min k num_inputs) (i.S.spec.S.id + k + 50)) ])
           ks)
    in
    Solver.pick_best ~valid:i.S.valid candidates
  in
  { Solver.name = "team4"; techniques = [ "neural-nets"; "espresso" ]; solve }

(* ------------------------------------------------------------------ *)
(* Team 5: DT/RF grids + NN-guided small-formula search                *)
(* ------------------------------------------------------------------ *)

(* All formulas over at most three of four variables: literals, then
   binary ops of literals, then (pair op literal) with the third variable
   distinct from the pair's. *)
type formula =
  | F_var of int * bool  (* index into the selection, negated? *)
  | F_op of [ `And | `Or | `Xor ] * formula * formula

let rec formula_vars = function
  | F_var (i, _) -> [ i ]
  | F_op (_, a, b) -> formula_vars a @ formula_vars b

let formula_candidates =
  let literals =
    List.concat_map (fun i -> [ F_var (i, false); F_var (i, true) ]) [ 0; 1; 2; 3 ]
  in
  let ops = [ `And; `Or; `Xor ] in
  let pairs =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun b ->
            match (a, b) with
            | F_var (i, _), F_var (j, _) when i < j ->
                List.map (fun op -> F_op (op, a, b)) ops
            | _ -> [])
          literals)
      literals
  in
  let triples =
    List.concat_map
      (fun p ->
        let used = formula_vars p in
        List.concat_map
          (fun l ->
            match l with
            | F_var (i, _) when not (List.mem i used) ->
                List.map (fun op -> F_op (op, p, l)) ops
            | _ -> [])
          literals)
      pairs
  in
  literals @ pairs @ triples

let rec formula_column f columns =
  match f with
  | F_var (i, neg) -> if neg then Words.lognot columns.(i) else columns.(i)
  | F_op (op, a, b) ->
      let ca = formula_column a columns and cb = formula_column b columns in
      (match op with
      | `And -> Words.logand ca cb
      | `Or -> Words.logor ca cb
      | `Xor -> Words.logxor ca cb)

let rec formula_lit g inputs f =
  match f with
  | F_var (i, neg) -> G.lit_notif inputs.(i) neg
  | F_op (op, a, b) ->
      let la = formula_lit g inputs a and lb = formula_lit g inputs b in
      (match op with
      | `And -> G.and_ g la lb
      | `Or -> G.or_ g la lb
      | `Xor -> G.xor_ g la lb)

let nn_formula_candidate ~seed d =
  let num_inputs = D.num_inputs d in
  (* A one-hidden-layer MLP ranks inputs by total absolute first-layer
     weight; the best formula over the top four is exhausted. *)
  let params =
    {
      Nnet.Mlp.default_params with
      Nnet.Mlp.hidden = [ 8 ];
      epochs = 8;
      seed;
    }
  in
  let net = Nnet.Mlp.train params d in
  let first = net.Nnet.Mlp.layers.(0) in
  let importance =
    Array.init num_inputs (fun c ->
        let total = ref 0.0 in
        for r = 0 to first.Nnet.Mlp.weights.Nnet.Matrix.rows - 1 do
          total := !total +. abs_float (Nnet.Matrix.get first.Nnet.Mlp.weights r c)
        done;
        !total)
  in
  let idx = Array.init num_inputs Fun.id in
  Array.sort (fun a b -> compare importance.(b) importance.(a)) idx;
  let selection = Array.sub idx 0 (min 4 num_inputs) in
  let columns = Array.map (fun i -> (D.columns d).(i)) selection in
  let outputs = D.outputs d in
  let n = D.num_samples d in
  let score f =
    let c = formula_column f columns in
    let agree = n - Words.popcount (Words.logxor c outputs) in
    max agree (n - agree)
  in
  let best =
    List.fold_left
      (fun (bs, bf) f ->
        let s = score f in
        if s > bs then (s, f) else (bs, bf))
      (-1, F_var (0, false))
      (List.filter
         (fun f -> List.for_all (fun v -> v < Array.length selection) (formula_vars f))
         formula_candidates)
  in
  let _, f = best in
  let g = G.create ~num_inputs () in
  let inputs = Array.map (G.input g) selection in
  let lit = formula_lit g inputs f in
  (* Polarity: the search scored both the formula and its complement. *)
  let c = formula_column f columns in
  let agree = n - Words.popcount (Words.logxor c outputs) in
  G.set_output g (G.lit_notif lit (2 * agree < n));
  ("nn-formula", Aig.Opt.cleanup g)

let team5 =
  let solve (i : S.instance) =
    let all = merged i in
    let st = Random.State.make [| 5; i.S.spec.S.id |] in
    let train, valid = D.stratified_split st all ~ratio:0.8 in
    let num_inputs = D.num_inputs train in
    let with_selection tag selection depth =
      let proj = Featsel.project train selection in
      let t = Dtree.Train.train (dt_params ~max_depth:depth ()) proj in
      ( Printf.sprintf "dt-%s-d%d" tag depth,
        lift_aig ~selection ~num_inputs (tree_aig ~num_inputs:(Array.length selection) t) )
    in
    let full = Array.init num_inputs Fun.id in
    let half = max 1 (num_inputs / 2) in
    let dts =
      List.concat_map
        (fun depth ->
          [ (fun () -> with_selection "all" full depth);
            (fun () ->
              with_selection "kbest"
                (Featsel.select_k_best Featsel.Chi2 ~k:half train) depth);
            (fun () ->
              with_selection "pct50"
                (Featsel.select_percentile Featsel.Mutual_info ~percentile:50.0 train)
                depth) ])
        [ 10; 20 ]
    in
    let rf () =
      let params =
        {
          Forest.Bagging.default_params with
          Forest.Bagging.num_trees = 3;
          tree = dt_params ~max_depth:10 ();
        }
      in
      ("rf-3", Forest.Bagging.to_aig ~num_inputs (Forest.Bagging.train ~rng:st params train))
    in
    let nn () = nn_formula_candidate ~seed:i.S.spec.S.id train in
    Solver.pick_best ~valid (guarded (dts @ [ rf; nn ]))
  in
  { Solver.name = "team5"; techniques = [ "trees"; "neural-nets" ]; solve }

(* ------------------------------------------------------------------ *)
(* Team 6: LUT networks only                                           *)
(* ------------------------------------------------------------------ *)

let team6 =
  let solve (i : S.instance) =
    let candidates =
      List.concat_map
        (fun scheme ->
          List.concat_map
            (fun width ->
              List.map
                (fun layers () ->
                  let params =
                    {
                      Lutnet.lut_size = 4;
                      layer_width = width;
                      num_layers = layers;
                      scheme;
                      seed = i.S.spec.S.id;
                    }
                  in
                  let name =
                    Printf.sprintf "lutnet-%s-%dx%d"
                      (match scheme with
                      | Lutnet.Random_inputs -> "rand"
                      | Lutnet.Unique_random -> "uniq")
                      layers width
                  in
                  (name, Lutnet.to_aig (Lutnet.train params i.S.train)))
                [ 2; 4 ])
            [ 16; 32 ])
        [ Lutnet.Random_inputs; Lutnet.Unique_random ]
    in
    Solver.pick_best ~valid:i.S.valid (guarded candidates)
  in
  { Solver.name = "team6"; techniques = [ "lut-network" ]; solve }

(* ------------------------------------------------------------------ *)
(* Team 7: matching, then DT vs quantized XGBoost                      *)
(* ------------------------------------------------------------------ *)

let team7 =
  let solve (i : S.instance) =
    match Fmatch.find i.S.train with
    | Some m -> { Solver.aig = m.Fmatch.build (); technique = m.Fmatch.name }
    | None ->
        let num_inputs = D.num_inputs i.S.train in
        let dt_p = dt_params ~min_samples:2 () in
        let xgb_p =
          {
            Forest.Boosting.default_params with
            Forest.Boosting.num_trees = 31;
            max_depth = 5;
            colsample = (if num_inputs > 64 then 0.3 else 1.0);
            seed = i.S.spec.S.id;
          }
        in
        (* The paper chooses between the single deep tree and the boosted
           ensemble by cross-validation on the training data. *)
        let rng = Random.State.make [| 7; i.S.spec.S.id |] in
        let chosen =
          Cv.select ~rng ~k:5
            ~candidates:
              [ ( "dt-unlimited",
                  (fun d -> `Tree (Dtree.Train.train dt_p d)),
                  fun m d ->
                    match m with
                    | `Tree t -> Dtree.Train.accuracy t d
                    | `Boost b -> Forest.Boosting.accuracy b d );
                ( "xgboost",
                  (fun d -> `Boost (Forest.Boosting.train xgb_p d)),
                  fun m d ->
                    match m with
                    | `Tree t -> Dtree.Train.accuracy t d
                    | `Boost b -> Forest.Boosting.accuracy b d ) ]
            i.S.train
        in
        let model () =
          if chosen = "dt-unlimited" then
            (chosen, tree_aig ~num_inputs (Dtree.Train.train dt_p i.S.train))
          else
            ( chosen,
              Forest.Boosting.to_aig ~num_inputs
                (Forest.Boosting.train xgb_p i.S.train) )
        in
        (* Nearly symmetric functions get the popcount side circuit as an
           extra candidate. *)
        let candidates =
          guarded [ model ] @ Option.to_list (Fmatch.popcount_tree i.S.train)
        in
        Solver.pick_best ~valid:i.S.valid candidates
  in
  {
    Solver.name = "team7";
    techniques = [ "trees"; "standard-functions" ];
    solve;
  }

(* ------------------------------------------------------------------ *)
(* Team 8: decomposition-aware C4.5 / RF / sine MLP                    *)
(* ------------------------------------------------------------------ *)

let team8 =
  let solve (i : S.instance) =
    let num_inputs = D.num_inputs i.S.train in
    let bdt tau min_samples =
      let params =
        {
          (dt_params ~min_samples ()) with
          Dtree.Train.decomp_threshold = Some tau;
          max_depth = Some 14;
        }
      in
      let t = Dtree.Train.train params i.S.train in
      (Printf.sprintf "bdt-t%.2f-n%d" tau min_samples, tree_aig ~num_inputs t)
    in
    let rng = Random.State.make [| 8; i.S.spec.S.id |] in
    let rf () =
      ( "rf-17x8",
        Forest.Bagging.to_aig ~num_inputs
          (Forest.Bagging.train ~rng Forest.Bagging.default_params i.S.train) )
    in
    let sine_mlp () =
      (* A *single* hidden layer of sine units at a small learning rate is
         what recovers periodic structure (parity); training is seed
         sensitive, so a couple of restarts are scored on validation. *)
      let k = min 16 num_inputs in
      let selection = top_k_features i.S.train k in
      let proj_train = Featsel.project i.S.train selection in
      let proj_valid = Featsel.project i.S.valid selection in
      let train_once seed =
        let params =
          {
            Nnet.Mlp.default_params with
            Nnet.Mlp.hidden = [ 8 ];
            activation = Nnet.Mlp.Sine;
            epochs = 60;
            learning_rate = 0.02;
            seed;
          }
        in
        let net = Nnet.Mlp.train ~validation:proj_valid params proj_train in
        (Nnet.Mlp.accuracy net proj_valid, net)
      in
      let _, net =
        List.fold_left max (train_once 1) [ train_once (2 + i.S.spec.S.id) ]
      in
      (* The paper's Team 8 enumerates the whole (float) network when the
         input count is small enough ("fewer than 20 inputs"); wider
         selections would need the pruning path. *)
      let aig = Nnet.Neuron_lut.enumerate_to_aig ~num_inputs:k net in
      ("sine-mlp", lift_aig ~selection ~num_inputs aig)
    in
    Solver.pick_best ~valid:i.S.valid
      (guarded [ (fun () -> bdt 0.05 2); (fun () -> bdt 0.2 8); rf; sine_mlp ])
  in
  { Solver.name = "team8"; techniques = [ "trees"; "neural-nets" ]; solve }

(* ------------------------------------------------------------------ *)
(* Team 9: bootstrapped CGP                                            *)
(* ------------------------------------------------------------------ *)

let team9 =
  let solve (i : S.instance) =
    let num_inputs = D.num_inputs i.S.train in
    let st = Random.State.make [| 9; i.S.spec.S.id |] in
    (* Half the training data seeds the bootstrap model, the other half
       drives the evolutionary fine-tune (the paper's 40-40/20 format). *)
    let seed_train, cgp_train = D.split_ratio st i.S.train ~ratio:0.5 in
    let dt_seed =
      tree_aig ~num_inputs
        (Dtree.Train.train (dt_params ~max_depth:10 ~min_samples:5 ()) seed_train)
    in
    let seed_candidates =
      ("dt-seed", dt_seed) :: guarded (espresso_thunks seed_train)
    in
    let seed_best = Solver.pick_best ~valid:i.S.valid seed_candidates in
    let seed_acc = Solver.evaluate seed_best.Solver.aig i.S.valid in
    (* A crashed evolution falls back to the bootstrap model rather than
       losing the benchmark. *)
    let evolve_guarded () =
      if seed_acc >= 0.55 then begin
        if Aig.Graph.num_ands seed_best.Solver.aig > 800 then None
        else begin
          let genome = Cgp.of_aig st seed_best.Solver.aig in
          let params =
            {
              Cgp.default_params with
              Cgp.generations = 600;
              seed = i.S.spec.S.id;
            }
          in
          let evolved, _ = Cgp.evolve ~initial:genome params cgp_train in
          Some ("cgp-bootstrap", Cgp.to_aig evolved)
        end
      end
      else begin
        let params =
          {
            Cgp.default_params with
            Cgp.num_nodes = 500;
            generations = 1500;
            function_set = Cgp.Xaig_ops;
            batch_size = Some 1024;
            change_batch_every = 500;
            seed = i.S.spec.S.id;
          }
        in
        let evolved, _ = Cgp.evolve params i.S.train in
        Some ("cgp-random", Cgp.to_aig evolved)
      end
    in
    let cgp_result =
      match Resil.Guard.capture evolve_guarded with
      | Ok r -> r
      | Error _ -> None
    in
    match cgp_result with
    | None -> seed_best
    | Some (name, aig) ->
        Solver.pick_best ~valid:i.S.valid
          [ (seed_best.Solver.technique, seed_best.Solver.aig); (name, aig) ]
  in
  { Solver.name = "team9"; techniques = [ "trees"; "espresso" ]; solve }

(* ------------------------------------------------------------------ *)
(* Team 10: one depth-8 decision tree                                  *)
(* ------------------------------------------------------------------ *)

let team10 =
  let solve (i : S.instance) =
    let num_inputs = D.num_inputs i.S.train in
    let params = dt_params ~max_depth:8 ~min_samples:2 () in
    let t = Dtree.Train.train params i.S.train in
    let acc = Dtree.Train.accuracy t i.S.valid in
    let t =
      if acc >= 0.70 then t
      else Dtree.Train.train params (merged i)
    in
    { Solver.aig = tree_aig ~num_inputs t; technique = "dt-depth8" }
  in
  { Solver.name = "team10"; techniques = [ "trees" ]; solve }

let all =
  [ team1; team2; team3; team4; team5; team6; team7; team8; team9; team10 ]

let find name = List.find_opt (fun (t : Solver.t) -> t.Solver.name = name) all

(* ------------------------------------------------------------------ *)
(* CEGIS repair post-pass                                              *)
(* ------------------------------------------------------------------ *)

let with_repair ?config (solver : Solver.t) =
  let solve (i : S.instance) =
    let base = solver.Solver.solve i in
    let repaired, stats = Repair.repair ?config ~train:i.S.train base.Solver.aig in
    (* The "+repair" suffix marks rows where the post-pass actually fixed
       training disagreements; an already-perfect (or unimprovable)
       result keeps its technique name so reports do not suggest repair
       work that never happened. *)
    let technique =
      if stats.Repair.train_errors_after < stats.Repair.train_errors_before
      then base.Solver.technique ^ "+repair"
      else base.Solver.technique
    in
    { Solver.aig = repaired; technique }
  in
  { solver with Solver.solve = solve }
