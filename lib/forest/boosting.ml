type rtree =
  | RLeaf of float
  | RNode of { feature : int; low : rtree; high : rtree }

type params = {
  num_trees : int;
  max_depth : int;
  learning_rate : float;
  lambda : float;
  min_child_weight : float;
  colsample : float;
  seed : int;
}

let default_params =
  {
    num_trees = 125;
    max_depth = 5;
    learning_rate = 0.3;
    lambda = 1.0;
    min_child_weight = 1.0;
    colsample = 1.0;
    seed = 1;
  }

type t = { params : params; trees : rtree array }

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

let rec rtree_value tree inputs =
  match tree with
  | RLeaf v -> v
  | RNode { feature; low; high } ->
      rtree_value (if inputs.(feature) then high else low) inputs

(* Fit one tree to (g, h) statistics of the samples in [mask]. *)
let fit_tree params ~columns ~features g h mask =
  let leaf_weight sum_g sum_h =
    -.sum_g /. (sum_h +. params.lambda) *. params.learning_rate
  in
  let sums mask =
    let sg = ref 0.0 and sh = ref 0.0 in
    Words.iter_set mask (fun j ->
        sg := !sg +. g.(j);
        sh := !sh +. h.(j));
    (!sg, !sh)
  in
  let score sum_g sum_h = sum_g *. sum_g /. (sum_h +. params.lambda) in
  let rec grow mask depth =
    let sum_g, sum_h = sums mask in
    if depth >= params.max_depth then RLeaf (leaf_weight sum_g sum_h)
    else begin
      let base = score sum_g sum_h in
      let best = ref (0.0, None) in
      Array.iter
        (fun f ->
          let hi = Words.logand mask columns.(f) in
          let gl, hl = sums hi in
          let gr = sum_g -. gl and hr = sum_h -. hl in
          if hl >= params.min_child_weight && hr >= params.min_child_weight
          then begin
            let gain = score gl hl +. score gr hr -. base in
            let best_gain, _ = !best in
            if gain > best_gain +. 1e-12 then best := (gain, Some f)
          end)
        features;
      match !best with
      | _, None -> RLeaf (leaf_weight sum_g sum_h)
      | _, Some f ->
          let hi = Words.logand mask columns.(f) in
          let lo = Words.andnot mask columns.(f) in
          RNode
            { feature = f; low = grow lo (depth + 1); high = grow hi (depth + 1) }
    end
  in
  grow mask 0

let train params d =
  let n = Data.Dataset.num_samples d in
  let columns = Data.Dataset.columns d in
  let num_features = Data.Dataset.num_inputs d in
  let y = Array.init n (fun j -> if Data.Dataset.output_bit d j then 1.0 else 0.0) in
  let scores = Array.make n 0.0 in
  let g = Array.make n 0.0 and h = Array.make n 0.0 in
  let all = Words.create n in
  Words.fill all true;
  let rng = Random.State.make [| 0xb005; params.seed |] in
  let pick_features () =
    if params.colsample >= 1.0 then Array.init num_features Fun.id
    else begin
      let k = max 1 (int_of_float (params.colsample *. float_of_int num_features)) in
      let chosen = Hashtbl.create k in
      while Hashtbl.length chosen < k do
        Hashtbl.replace chosen (Random.State.int rng num_features) ()
      done;
      Array.of_seq (Hashtbl.to_seq_keys chosen)
    end
  in
  let trees =
    Array.init params.num_trees (fun _ ->
        for j = 0 to n - 1 do
          let p = sigmoid scores.(j) in
          g.(j) <- p -. y.(j);
          h.(j) <- max 1e-6 (p *. (1.0 -. p))
        done;
        let tree = fit_tree params ~columns ~features:(pick_features ()) g h all in
        (* Update scores region by region rather than row by row. *)
        let rec bump tree mask =
          if not (Words.is_empty mask) then
            match tree with
            | RLeaf v -> Words.iter_set mask (fun j -> scores.(j) <- scores.(j) +. v)
            | RNode { feature; low; high } ->
                bump high (Words.logand mask columns.(feature));
                bump low (Words.andnot mask columns.(feature))
        in
        bump tree all;
        tree)
  in
  { params; trees }

(* Sum of leaf values (log-odds). *)
let predict_score m inputs =
  Array.fold_left (fun acc t -> acc +. rtree_value t inputs) 0.0 m.trees

let predict m inputs = predict_score m inputs >= 0.0

let predict_mask m columns =
  let n = if Array.length columns = 0 then 0 else Words.length columns.(0) in
  let scores = Array.make n 0.0 in
  let rec accumulate tree mask =
    if not (Words.is_empty mask) then
      match tree with
      | RLeaf v -> Words.iter_set mask (fun j -> scores.(j) <- scores.(j) +. v)
      | RNode { feature; low; high } ->
          accumulate high (Words.logand mask columns.(feature));
          accumulate low (Words.andnot mask columns.(feature))
  in
  let all = Words.create n in
  Words.fill all true;
  Array.iter (fun t -> accumulate t all) m.trees;
  Words.init n (fun j -> scores.(j) >= 0.0)

(* Trees whose every leaf is (numerically) zero carry no signal; once the
   loss is fit, boosting produces such trees, and quantizing their
   zero-leaves to "vote true" would swamp the majority.  They abstain. *)
let informative m =
  let rec max_abs = function
    | RLeaf v -> abs_float v
    | RNode { low; high; _ } -> max (max_abs low) (max_abs high)
  in
  let kept = Array.of_list (List.filter (fun t -> max_abs t > 1e-3) (Array.to_list m.trees)) in
  if Array.length kept = 0 then Array.sub m.trees 0 1 else kept

let predict_quantized m inputs =
  let trees = informative m in
  let vote t = if rtree_value t inputs >= 0.0 then 1 else 0 in
  let votes = Array.fold_left (fun acc t -> acc + vote t) 0 trees in
  (* Mirror [to_aig]: an even ensemble re-counts the first vote so the
     majority stays decisive. *)
  if Array.length trees mod 2 = 1 then 2 * votes > Array.length trees
  else 2 * (votes + vote trees.(0)) > Array.length trees + 1

let accuracy m d =
  Data.Dataset.accuracy ~predicted:(predict_mask m (Data.Dataset.columns d)) d

(* Quantize a regression tree into a Boolean tree of leaf signs. *)
let rec quantize = function
  | RLeaf v -> Dtree.Tree.Leaf (v >= 0.0)
  | RNode { feature; low; high } ->
      Dtree.Tree.Node { feature; low = quantize low; high = quantize high }

let to_aig ~num_inputs m =
  let g = Aig.Graph.create ~num_inputs () in
  let trees = informative m in
  let bits =
    Array.map
      (fun t ->
        Synth.Tree_synth.lit_of_tree g ~feature_lit:(Aig.Graph.input g)
          (quantize t))
      trees
  in
  let out =
    if Array.length bits = 125 then Synth.Majority.majority5_tree g bits
    else if Array.length bits mod 2 = 1 then
      Synth.Majority.majority g (Array.to_list bits)
    else
      (* Even count after filtering: duplicate the first (strongest) vote
         to keep the majority decisive without biasing to a constant. *)
      Synth.Majority.majority g (bits.(0) :: Array.to_list bits)
  in
  Aig.Graph.set_output g out;
  Aig.Opt.cleanup g
