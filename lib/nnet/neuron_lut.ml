let activation_value kind x =
  match kind with
  | Mlp.Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | Mlp.Relu -> if x > 0.0 then x else 0.0
  | Mlp.Sine -> sin x

let to_aig ?(max_fanin = 14) ~num_inputs net =
  let g = Aig.Graph.create ~num_inputs () in
  let signals = ref (Array.init num_inputs (Aig.Graph.input g)) in
  Array.iter
    (fun (layer : Mlp.layer) ->
      let rows = layer.weights.Matrix.rows in
      let next = Array.make rows Aig.Graph.const_false in
      for r = 0 to rows - 1 do
        (* Surviving inputs of this neuron. *)
        let wires = ref [] in
        for c = layer.weights.Matrix.cols - 1 downto 0 do
          if Matrix.get layer.weights r c <> 0.0 then wires := c :: !wires
        done;
        let wires = Array.of_list !wires in
        let k = Array.length wires in
        if k > max_fanin then
          invalid_arg
            (Printf.sprintf "Neuron_lut.to_aig: fan-in %d exceeds %d" k max_fanin);
        let truth =
          Array.init (1 lsl k) (fun e ->
              let pre = ref layer.bias.(r) in
              for b = 0 to k - 1 do
                if e lsr b land 1 = 1 then
                  pre := !pre +. Matrix.get layer.weights r wires.(b)
              done;
              activation_value layer.activation !pre >= 0.5)
        in
        let inputs = Array.map (fun c -> (!signals).(c)) wires in
        next.(r) <- Synth.Lut_synth.lit_of_lut g ~inputs ~truth
      done;
      signals := next)
    net.Mlp.layers;
  Aig.Graph.set_output g (!signals).(0);
  Aig.Opt.cleanup g

let enumerate_to_aig ?(max_inputs = 20) ~num_inputs net =
  if num_inputs > max_inputs then
    invalid_arg
      (Printf.sprintf "Neuron_lut.enumerate_to_aig: %d inputs exceeds %d"
         num_inputs max_inputs);
  let truth =
    Array.init (1 lsl num_inputs) (fun e ->
        let v =
          Array.init num_inputs (fun b ->
              if e lsr b land 1 = 1 then 1.0 else 0.0)
        in
        Mlp.probability net v >= 0.5)
  in
  let g = Aig.Graph.create ~num_inputs () in
  Aig.Graph.set_output g
    (Synth.Lut_synth.lit_of_lut g
       ~inputs:(Array.init num_inputs (Aig.Graph.input g))
       ~truth);
  Aig.Opt.cleanup g
