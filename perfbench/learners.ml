(* Learner layer of [grid]: each learner's public entry point, timed on the
   training set of every drawn instance with the settings the teams use
   (the MLP on the top-16 features, one espresso pass below 40 inputs,
   600 CGP generations).  The teams call these through their portfolios;
   timing them here keeps the attribution out of the library. *)

open Common
module S = Benchgen.Suite
module D = Data.Dataset

let time_all ~seed instances =
  let total = Hashtbl.create 16 in
  let add name dt =
    Hashtbl.replace total name (dt +. Option.value ~default:0.0 (Hashtbl.find_opt total name))
  in
  let timed name f =
    let r, dt = time f in
    add name dt;
    r
  in
  List.iter
    (fun (inst : S.instance) ->
      let d = inst.S.train in
      let n = D.num_inputs d in
      let sel =
        timed "featsel.rank_s" (fun () ->
            Featsel.select_k_best Featsel.Mutual_info ~k:(min 16 n) d)
      in
      let proj = Featsel.project d sel in
      let mlp_params =
        { Nnet.Mlp.default_params with Nnet.Mlp.hidden = [ 16; 8 ]; epochs = 15; seed }
      in
      ignore (timed "nnet.train_s" (fun () -> Nnet.Mlp.train mlp_params proj));
      let tree =
        timed "dtree.train_s" (fun () ->
            Dtree.Train.train
              { Dtree.Train.default_params with Dtree.Train.max_depth = Some 8 }
              d)
      in
      ignore
        (timed "forest.train_s" (fun () ->
             Forest.Bagging.train ~rng:(Random.State.make [| seed |])
               Forest.Bagging.default_params d));
      ignore (timed "lutnet.train_s" (fun () -> Lutnet.train Lutnet.default_params d));
      ignore (timed "rules.train_s" (fun () -> Rules.Part.train Rules.Part.default_params d));
      let cover =
        if n > 40 then None
        else
          Some
            (timed "sop.espresso_s" (fun () ->
                 Sop.Espresso.minimize
                   ~config:{ Sop.Espresso.default_config with Sop.Espresso.max_passes = 1 }
                   d))
      in
      ignore
        (timed "cgp.evolve_s" (fun () ->
             Cgp.evolve { Cgp.default_params with Cgp.generations = 600; seed } d));
      timed "synth.to_aig_s" (fun () ->
          ignore (Synth.Tree_synth.aig_of_tree ~num_inputs:n tree);
          Option.iter (fun c -> ignore (Synth.Sop_synth.aig_of_cover c)) cover))
    instances;
  List.map
    (fun name -> m name "s" (Option.value ~default:0.0 (Hashtbl.find_opt total name)))
    [ "nnet.train_s"; "dtree.train_s"; "forest.train_s"; "lutnet.train_s"; "rules.train_s";
      "sop.espresso_s"; "cgp.evolve_s"; "featsel.rank_s"; "synth.to_aig_s" ]
