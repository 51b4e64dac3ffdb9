module D = Data.Dataset
module M = Nnet.Mlp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

let full_table n f =
  D.create ~num_inputs:n
    (List.init (1 lsl n) (fun i ->
         let bits = Array.init n (fun k -> i lsr k land 1 = 1) in
         (bits, f bits)))

let test_matrix_ops () =
  let m = Nnet.Matrix.init ~rows:2 ~cols:3 (fun r c -> float_of_int ((r * 3) + c)) in
  Alcotest.(check (array (float 1e-9)))
    "mul_vec" [| 4.0; 16.0 |]
    (Nnet.Matrix.mul_vec m [| 1.0; 2.0; 1.0 |]);
  Alcotest.(check (array (float 1e-9)))
    "mul_vec_transposed" [| 3.0; 5.0; 7.0 |]
    (Nnet.Matrix.mul_vec_transposed m [| 1.0; 1.0 |]);
  Alcotest.check_raises "dimension check" (Invalid_argument "Matrix.mul_vec: dimension")
    (fun () -> ignore (Nnet.Matrix.mul_vec m [| 1.0 |]))

let train_params =
  { M.default_params with M.hidden = [ 8 ]; epochs = 80; learning_rate = 0.8 }

let test_learns_and () =
  let d = full_table 2 (fun b -> b.(0) && b.(1)) in
  let net = M.train { train_params with M.seed = 3 } d in
  check_float "fits AND" 1.0 (M.accuracy net d)

let test_learns_xor () =
  let d = full_table 2 (fun b -> b.(0) <> b.(1)) in
  let net = M.train { train_params with M.epochs = 300; seed = 1 } d in
  check_float "fits XOR" 1.0 (M.accuracy net d)

let test_sine_activation_trains () =
  let d = full_table 3 (fun b -> Array.fold_left ( <> ) false b) in
  let net =
    M.train
      { train_params with M.activation = M.Sine; epochs = 300; learning_rate = 0.3; seed = 2 }
      d
  in
  check_bool "parity above chance" true (M.accuracy net d > 0.6)

let test_predict_mask_consistent () =
  let d = full_table 4 (fun b -> b.(0) || b.(2)) in
  let net = M.train { train_params with M.seed = 5 } d in
  let mask = M.predict_mask net (D.columns d) in
  for j = 0 to D.num_samples d - 1 do
    check_bool "mask vs scalar" (M.predict net (D.row d j)) (Words.get mask j)
  done

let test_prune_respects_fanin () =
  let d = full_table 5 (fun b -> (b.(0) && b.(1)) || b.(3)) in
  let net = M.train { train_params with M.hidden = [ 10; 6 ]; seed = 7 } d in
  let pruned =
    Nnet.Prune.prune_to_fanin ~rounds:2
      ~retrain:{ train_params with M.epochs = 20 }
      ~max_fanin:3 net d
  in
  Array.iter
    (fun (layer : M.layer) ->
      for r = 0 to layer.M.weights.Nnet.Matrix.rows - 1 do
        check_bool "fanin bound" true (M.fanin layer r <= 3)
      done)
    pruned.M.layers;
  (* The original network is untouched. *)
  check_bool "original unpruned" true
    (Array.exists
       (fun (layer : M.layer) ->
         let wide = ref false in
         for r = 0 to layer.M.weights.Nnet.Matrix.rows - 1 do
           if M.fanin layer r > 3 then wide := true
         done;
         !wide)
       net.M.layers)

let test_neuron_lut_agrees_with_quantized_net () =
  let d = full_table 4 (fun b -> b.(0) && (b.(1) || not b.(3))) in
  let net = M.train { train_params with M.hidden = [ 6 ]; seed = 11 } d in
  let pruned =
    Nnet.Prune.prune_to_fanin ~rounds:1
      ~retrain:{ train_params with M.epochs = 10 }
      ~max_fanin:4 net d
  in
  let aig = Nnet.Neuron_lut.to_aig ~num_inputs:4 pruned in
  (* The circuit must compute the layer-wise quantized network; check that
     it stays close to the float network on the training table. *)
  let acc = Aig.Sim.accuracy aig (D.columns d) (D.outputs d) in
  check_bool "synthesis keeps accuracy" true
    (acc >= M.accuracy pruned d -. 0.25);
  check_int "correct inputs" 4 (Aig.Graph.num_inputs aig)

let test_neuron_lut_fanin_guard () =
  let d = full_table 5 (fun b -> b.(0)) in
  let net = M.train { train_params with M.hidden = [ 4 ]; epochs = 5; seed = 1 } d in
  Alcotest.check_raises "fan-in guard"
    (Invalid_argument "Neuron_lut.to_aig: fan-in 5 exceeds 2") (fun () ->
      ignore (Nnet.Neuron_lut.to_aig ~max_fanin:2 ~num_inputs:5 net))

let test_validation_snapshot () =
  (* With a validation set, train returns the best epoch snapshot, which
     can only improve validation accuracy vs the last epoch. *)
  let d = full_table 4 (fun b -> b.(1) <> b.(2)) in
  let last = M.train { train_params with M.epochs = 50; seed = 9 } d in
  let best = M.train ~validation:d { train_params with M.epochs = 50; seed = 9 } d in
  check_bool "snapshot at least as good" true
    (M.accuracy best d >= M.accuracy last d -. 1e-9)

let suites =
  [ ( "nnet",
      [ Alcotest.test_case "matrix ops" `Quick test_matrix_ops;
        Alcotest.test_case "learns AND" `Quick test_learns_and;
        Alcotest.test_case "learns XOR" `Quick test_learns_xor;
        Alcotest.test_case "sine activation" `Quick test_sine_activation_trains;
        Alcotest.test_case "mask prediction" `Quick test_predict_mask_consistent;
        Alcotest.test_case "pruning fan-in bound" `Quick test_prune_respects_fanin;
        Alcotest.test_case "neuron-LUT synthesis" `Quick
          test_neuron_lut_agrees_with_quantized_net;
        Alcotest.test_case "neuron-LUT guard" `Quick test_neuron_lut_fanin_guard;
        Alcotest.test_case "validation snapshot" `Quick test_validation_snapshot ] )
  ]
