module G = Aig.Graph

let check_bool = Alcotest.(check bool)

let result_name = function
  | Cec.Proved -> "proved"
  | Cec.Counterexample _ -> "counterexample"
  | Cec.Counterexample_at _ -> "counterexample-at"
  | Cec.Unknown _ -> "unknown"

let check_proved name r = Alcotest.(check string) name "proved" (result_name r)

let random_graph st ~num_inputs ~num_nodes =
  let g = G.create ~num_inputs () in
  let pool = ref (List.init num_inputs (G.input g)) in
  let pick () =
    let l = List.nth !pool (Random.State.int st (List.length !pool)) in
    G.lit_notif l (Random.State.bool st)
  in
  for _ = 1 to num_nodes do
    let l = G.and_ g (pick ()) (pick ()) in
    pool := l :: !pool
  done;
  G.set_output g (pick ());
  g

(* ---- miter basics ---- *)

let test_xor_two_ways () =
  let g1 = G.create ~num_inputs:2 () in
  G.set_output g1 (G.xor_ g1 (G.input g1 0) (G.input g1 1));
  (* The same function built differently: (a OR b) AND NOT (a AND b). *)
  let g2 = G.create ~num_inputs:2 () in
  let a = G.input g2 0 and b = G.input g2 1 in
  G.set_output g2
    (G.and_ g2 (G.or_ g2 a b) (G.lit_not (G.and_ g2 a b)));
  check_proved "xor two ways" (Cec.equivalent g1 g2)

let test_counterexample () =
  let g1 = G.create ~num_inputs:2 () in
  G.set_output g1 (G.and_ g1 (G.input g1 0) (G.input g1 1));
  let g2 = G.create ~num_inputs:2 () in
  G.set_output g2 (G.or_ g2 (G.input g2 0) (G.input g2 1));
  match Cec.equivalent g1 g2 with
  | Cec.Counterexample cex ->
      check_bool "cex length" true (Array.length cex = 2);
      check_bool "cex distinguishes" true (G.eval g1 cex <> G.eval g2 cex)
  | r -> Alcotest.failf "expected counterexample, got %s" (result_name r)

let test_constant_cases () =
  let g1 = G.create ~num_inputs:3 () in
  G.set_output g1 G.const_true;
  let g2 = G.create ~num_inputs:3 () in
  let a = G.input g2 0 in
  G.set_output g2 (G.or_ g2 a (G.lit_not a));
  check_proved "tautology vs constant" (Cec.equivalent g1 g2);
  G.set_output g1 G.const_false;
  (match Cec.equivalent g1 g2 with
  | Cec.Counterexample cex ->
      check_bool "const cex" true (G.eval g1 cex <> G.eval g2 cex)
  | r -> Alcotest.failf "expected counterexample, got %s" (result_name r));
  check_bool "input count mismatch rejected" true
    (try
       ignore (Cec.equivalent g1 (G.create ~num_inputs:2 ()));
       false
     with Invalid_argument _ -> true)

let test_multi_output () =
  let mk build =
    let g = G.create ~num_inputs:3 () in
    let a = G.input g 0 and b = G.input g 1 and c = G.input g 2 in
    let outs = build g a b c in
    Aig.Multi.create g (Array.of_list outs)
  in
  let m1 = mk (fun g a b c -> [ G.xor_ g a b; G.and_ g b c ]) in
  let m2 =
    mk (fun g a b c ->
        [ G.or_ g (G.and_ g a (G.lit_not b)) (G.and_ g (G.lit_not a) b);
          G.lit_not (G.or_ g (G.lit_not b) (G.lit_not c)) ])
  in
  check_proved "multi proved" (Cec.equivalent_multi m1 m2);
  let m3 = mk (fun g a b c -> [ G.xor_ g a b; G.or_ g b c ]) in
  (match Cec.equivalent_multi m1 m3 with
  | Cec.Counterexample_at (i, cex) ->
      check_bool "multi cex" true
        (Aig.Multi.eval m1 cex <> Aig.Multi.eval m3 cex);
      (* Outputs 0 agree everywhere; the localized index must be 1 and the
         counterexample must distinguish exactly that output pair. *)
      Alcotest.(check int) "offending output" 1 i;
      check_bool "index distinguishes" true
        ((Aig.Multi.eval m1 cex).(i) <> (Aig.Multi.eval m3 cex).(i))
  | r -> Alcotest.failf "expected counterexample-at, got %s" (result_name r));
  (* Per-output effort: output 0 proved, output 1 refuted, each with its
     own stats record. *)
  let per = Cec.equivalent_per_output m1 m3 in
  Alcotest.(check int) "per-output length" 2 (Array.length per);
  (match per.(0) with
  | Cec.Proved, _ -> ()
  | r, _ -> Alcotest.failf "output 0: expected proved, got %s" (result_name r));
  match per.(1) with
  | Cec.Counterexample cex, _ ->
      check_bool "output 1 cex distinguishes" true
        ((Aig.Multi.eval m1 cex).(1) <> (Aig.Multi.eval m3 cex).(1))
  | r, _ ->
      Alcotest.failf "output 1: expected counterexample, got %s" (result_name r)

(* ---- randomized cross-check against the BDD package ---- *)

let bdd_of_graph man g =
  let node = Array.make (G.num_vars g) (Bdd.bfalse man) in
  for i = 0 to G.num_inputs g - 1 do
    node.(i + 1) <- Bdd.var man i
  done;
  let bdd_of_lit l =
    let b = node.(G.var_of_lit l) in
    if G.is_complemented l then Bdd.mk_not man b else b
  in
  ignore
    (G.fold_ands g ~init:() ~f:(fun () v f0 f1 ->
         node.(v) <- Bdd.mk_and man (bdd_of_lit f0) (bdd_of_lit f1)));
  bdd_of_lit (G.output g)

(* [g] with its output complemented on exactly one input vector. *)
let flip_minterm g minterm =
  let n = G.num_inputs g in
  let h = G.create ~num_inputs:n () in
  let out = G.import h ~src:g in
  let hit =
    G.and_list h
      (List.init n (fun i -> G.lit_notif (G.input h i) (not minterm.(i))))
  in
  G.set_output h (G.xor_ h out hit);
  h

let random_minterm st n = Array.init n (fun _ -> Random.State.bool st)

let test_cross_check_bdd () =
  let st = Random.State.make [| 0xCEC |] in
  for trial = 1 to 40 do
    let num_inputs = 4 + Random.State.int st 9 in
    let g1 = random_graph st ~num_inputs ~num_nodes:40 in
    (* Most trials compare against a rewrite of the same function or a
       one-minterm flip of it, so the Proved branch and the exact
       counterexample are exercised, not just random refutations. *)
    let minterm = random_minterm st num_inputs in
    let g2 =
      match trial mod 4 with
      | 0 -> Aig.Opt.balance g1
      | 1 -> fst (Cec.sat_sweep ~num_patterns:128 g1)
      | 2 -> flip_minterm g1 minterm
      | _ -> random_graph st ~num_inputs ~num_nodes:40
    in
    let man = Bdd.create ~num_vars:num_inputs in
    let bdd_eq = Bdd.equal (bdd_of_graph man g1) (bdd_of_graph man g2) in
    match Cec.equivalent g1 g2 with
    | Cec.Proved ->
        check_bool (Printf.sprintf "trial %d: bdd agrees proved" trial) true
          bdd_eq
    | Cec.Counterexample cex | Cec.Counterexample_at (_, cex) ->
        check_bool (Printf.sprintf "trial %d: bdd agrees cex" trial) false
          bdd_eq;
        check_bool
          (Printf.sprintf "trial %d: cex distinguishes" trial)
          true
          (G.eval g1 cex <> G.eval g2 cex);
        if trial mod 4 = 2 then
          check_bool
            (Printf.sprintf "trial %d: cex is the flipped minterm" trial)
            true (cex = minterm)
    | Cec.Unknown reason ->
        Alcotest.failf "trial %d: unknown on tiny instance: %s" trial reason
  done

(* One multi-output circuit from single-output graphs over the same
   inputs. *)
let multi_of_graphs num_inputs gs =
  let g = G.create ~num_inputs () in
  Aig.Multi.create g (Array.of_list (List.map (fun src -> G.import g ~src) gs))

let output_bdds man (mo : Aig.Multi.t) =
  let g = mo.Aig.Multi.graph in
  let saved = G.output g in
  let bdds =
    Array.map
      (fun o ->
        G.set_output g o;
        bdd_of_graph man g)
      mo.Aig.Multi.outputs
  in
  G.set_output g saved;
  bdds

(* The array multiplier with its operands in either order: a narrow (12
   input) pair whose middle output bits need more than the first query's
   conflicts, so the merge pass and the residue queries run. *)
let multiplier ~width ~swap =
  let g = G.create ~num_inputs:(2 * width) () in
  let a = Array.init width (G.input g) in
  let b = Array.init width (fun i -> G.input g (width + i)) in
  Aig.Multi.create g
    (if swap then Synth.Arith.multiplier g b a else Synth.Arith.multiplier g a b)

(* [mo] with output [k] complemented on one input vector. *)
let flip_output (mo : Aig.Multi.t) k minterm =
  let n = G.num_inputs mo.Aig.Multi.graph in
  let g = G.create ~num_inputs:n () in
  let src = mo.Aig.Multi.graph in
  let saved = G.output src in
  let outs =
    Array.map
      (fun o ->
        G.set_output src o;
        G.import g ~src)
      mo.Aig.Multi.outputs
  in
  G.set_output src saved;
  let hit =
    G.and_list g
      (List.init n (fun i -> G.lit_notif (G.input g i) (not minterm.(i))))
  in
  outs.(k) <- G.xor_ g outs.(k) hit;
  Aig.Multi.create g outs

(* Both multi-output checks against per-output BDD equality. *)
let check_multi_vs_bdd name m1 m2 =
  let n = G.num_inputs m1.Aig.Multi.graph in
  let man = Bdd.create ~num_vars:n in
  let eq = Array.map2 Bdd.equal (output_bdds man m1) (output_bdds man m2) in
  let differs i cex = (Aig.Multi.eval m1 cex).(i) <> (Aig.Multi.eval m2 cex).(i) in
  Array.iteri
    (fun i (r, _) ->
      let tag = Printf.sprintf "%s: output %d" name i in
      match r with
      | Cec.Proved -> check_bool (tag ^ " bdd agrees proved") true eq.(i)
      | Cec.Counterexample cex | Cec.Counterexample_at (_, cex) ->
          check_bool (tag ^ " bdd agrees cex") false eq.(i);
          check_bool (tag ^ " cex distinguishes") true (differs i cex)
      | Cec.Unknown reason -> Alcotest.failf "%s unknown: %s" tag reason)
    (Cec.equivalent_per_output m1 m2);
  match Cec.equivalent_multi m1 m2 with
  | Cec.Proved ->
      check_bool (name ^ ": bdd agrees multi proved") true
        (Array.for_all Fun.id eq)
  | Cec.Counterexample_at (i, cex) ->
      check_bool (name ^ ": bdd agrees multi cex") false eq.(i);
      check_bool (name ^ ": multi cex distinguishes") true (differs i cex)
  | r -> Alcotest.failf "%s: multi gave %s" name (result_name r)

let test_cross_check_bdd_multi () =
  let st = Random.State.make [| 0x3C3C |] in
  for trial = 1 to 12 do
    let num_inputs = 4 + Random.State.int st 9 in
    let gs = List.init 3 (fun _ -> random_graph st ~num_inputs ~num_nodes:30) in
    (* Per output: a balanced rewrite, a sweep, a one-minterm flip or an
       unrelated function. *)
    let gs' =
      List.mapi
        (fun k g ->
          match (trial + k) mod 4 with
          | 0 -> Aig.Opt.balance g
          | 1 -> fst (Cec.sat_sweep ~num_patterns:128 g)
          | 2 -> flip_minterm g (random_minterm st num_inputs)
          | _ -> random_graph st ~num_inputs ~num_nodes:30)
        gs
    in
    check_multi_vs_bdd
      (Printf.sprintf "trial %d" trial)
      (multi_of_graphs num_inputs gs)
      (multi_of_graphs num_inputs gs')
  done;
  let m1 = multiplier ~width:6 ~swap:false in
  let m2 = multiplier ~width:6 ~swap:true in
  check_multi_vs_bdd "a*b vs b*a" m1 m2;
  check_multi_vs_bdd "a*b vs b*a flipped"
    m1 (flip_output m2 6 (random_minterm st 12))

(* ---- SAT sweeping ---- *)

let mux_of_rewrites st ~num_inputs =
  (* A circuit whose two mux branches compute the same function through
     different structure: sweeping must discover the equality and collapse
     the mux, which structural hashing alone cannot. *)
  let cone = random_graph st ~num_inputs ~num_nodes:(4 * num_inputs) in
  let bal = Aig.Opt.balance cone in
  let g = G.create ~num_inputs:(num_inputs + 1) () in
  let shift src =
    G.import g
      ~src:
        (Aig.Opt.remap_inputs src ~map:(fun i -> i + 1)
           ~num_inputs:(num_inputs + 1))
  in
  let a = shift cone and b = shift bal in
  G.set_output g (G.mux g ~sel:(G.input g 0) ~t1:a ~t0:b);
  g

let test_sweep_reduces () =
  let st = Random.State.make [| 0x5EE |] in
  let g = mux_of_rewrites st ~num_inputs:12 in
  let before = Aig.Opt.size g in
  let swept, stats = Cec.sat_sweep g in
  check_bool "merged something" true (stats.Cec.merges > 0);
  check_bool "reduced" true (G.num_ands swept < before);
  check_proved "sweep is exact" (Cec.equivalent g swept)

let test_sweep_preserves_random () =
  let st = Random.State.make [| 0x5EED |] in
  for trial = 1 to 10 do
    let num_inputs = 5 + Random.State.int st 6 in
    let g = random_graph st ~num_inputs ~num_nodes:60 in
    let swept, stats = Cec.sat_sweep ~num_patterns:128 g in
    check_bool
      (Printf.sprintf "trial %d: no growth" trial)
      true
      (stats.Cec.nodes_after <= stats.Cec.nodes_before);
    check_proved (Printf.sprintf "trial %d: preserved" trial)
      (Cec.equivalent g swept)
  done

(* ---- FRAIG check at forest scale, and its conflict budget ---- *)

(* The bagged forest of the bench's sweep table: 3637 gates over 35
   inputs.  One plain SAT call over the miter with its swept copy does
   not finish within 20k conflicts; the merge pass proves it in about
   1300. *)
let forest_ex52 =
  lazy
    (let b = Benchgen.Suite.benchmark 52 in
     let inst =
       Benchgen.Suite.instantiate ~sizes:Benchgen.Suite.reduced_sizes ~seed:1 b
     in
     Forest.Bagging.to_aig ~num_inputs:b.Benchgen.Suite.num_inputs
       (Forest.Bagging.train
          ~rng:(Random.State.make [| 52 |])
          Forest.Bagging.default_params inst.Benchgen.Suite.train))

let test_forest_ex52 () =
  let g = Lazy.force forest_ex52 in
  Alcotest.(check int) "forest-ex52 gates" 3637 (G.num_ands g);
  let swept, _ = Cec.sat_sweep g in
  check_proved "forest-ex52 vs swept"
    (Cec.equivalent ~conflict_limit:20_000 g swept);
  let minterm = random_minterm (Random.State.make [| 52 |]) (G.num_inputs g) in
  match Cec.equivalent ~conflict_limit:20_000 g (flip_minterm g minterm) with
  | Cec.Counterexample cex ->
      check_bool "cex is the flipped minterm" true (cex = minterm)
  | r -> Alcotest.failf "forest-ex52 flipped: %s" (result_name r)

(* The solver checks its limit between propagations, so one query may
   run a few conflicts past it; the total of a check may overshoot its
   budget by no more than that. *)
let overshoot = 8

let test_conflict_budget () =
  let g = Lazy.force forest_ex52 in
  let swept, _ = Cec.sat_sweep g in
  (* 300 ends inside the first query; 1100 inside the merge pass the
     proof needs (it takes about 1300 in all). *)
  List.iter
    (fun limit ->
      let r, st = Cec.equivalent_stats ~conflict_limit:limit g swept in
      Alcotest.(check string)
        (Printf.sprintf "limit %d: unknown" limit)
        "unknown" (result_name r);
      check_bool
        (Printf.sprintf "limit %d: %d conflicts within budget" limit
           st.Sat.Solver.conflicts)
        true
        (st.Sat.Solver.conflicts <= limit + overshoot))
    [ 300; 1100 ];
  (* Per output, the limit is the total over all outputs. *)
  let limit = 3000 in
  let per =
    Cec.equivalent_per_output ~conflict_limit:limit
      (multiplier ~width:6 ~swap:false)
      (multiplier ~width:6 ~swap:true)
  in
  let total =
    Array.fold_left (fun acc (_, st) -> acc + st.Sat.Solver.conflicts) 0 per
  in
  check_bool
    (Printf.sprintf "per-output total %d within budget" total)
    true
    (total <= limit + overshoot);
  check_bool "some output unknown" true
    (Array.exists (fun (r, _) -> result_name r = "unknown") per);
  check_bool "no output refuted" true
    (Array.for_all (fun (r, _) -> result_name r <> "counterexample") per)

(* ---- metamorphic regression: optimization passes on wide benchmarks ---- *)

(* Ten >20-input circuits shaped like the contest's logic-cone family.
   Every pass below claims to preserve the function; CEC holds it to
   that claim with a proof (simulation cannot: 2^21+ input patterns). *)
let wide_benchmarks =
  lazy
    (List.init 10 (fun k ->
         let num_inputs = 21 + (2 * k) in
         ( Printf.sprintf "cone-%din" num_inputs,
           Benchgen.Logic_bench.cone ~seed:(1000 + k) ~num_inputs () )))

let conflict_limit = 2_000_000

let prove name g g' =
  match Cec.equivalent ~conflict_limit g g' with
  | Cec.Proved -> ()
  | Cec.Counterexample _ | Cec.Counterexample_at _ ->
      Alcotest.failf "%s: NOT equivalent" name
  | Cec.Unknown reason -> Alcotest.failf "%s: unknown (%s)" name reason

let test_opt_passes_preserve () =
  List.iter
    (fun (name, g) ->
      prove (name ^ " cleanup") g (Aig.Opt.cleanup g);
      prove (name ^ " balance") g (Aig.Opt.balance g);
      let n = G.num_inputs g in
      let rot = Aig.Opt.remap_inputs g ~map:(fun i -> (i + 3) mod n) ~num_inputs:n in
      let back =
        Aig.Opt.remap_inputs rot ~map:(fun i -> (i + n - 3) mod n) ~num_inputs:n
      in
      prove (name ^ " remap roundtrip") g back;
      prove (name ^ " vote3") g (Aig.Opt.vote3 g g (Aig.Opt.balance g)))
    (Lazy.force wide_benchmarks)

let test_substitute_many_preserves () =
  List.iter
    (fun (name, g) ->
      (* Wrap the circuit with a node provably equal to input 1 but built
         so structural hashing cannot see it (mux with equal branches),
         XOR-cancelled against that input: the wrap is equivalent to the
         original, and substituting the redundant node by the input is
         exactly the rewrite [substitute_many] promises to do safely. *)
      let n = G.num_inputs g in
      let h = G.create ~num_inputs:n () in
      let o = G.import h ~src:g in
      let a = G.input h 0 and b = G.input h 1 in
      let red =
        G.or_ h (G.and_ h a b) (G.and_ h (G.lit_not a) b)
      in
      check_bool (name ^ ": wrap node is an AND") true
        (G.is_and_var h (G.var_of_lit red));
      G.set_output h (G.xor_ h o (G.xor_ h red b));
      prove (name ^ " wrap") g h;
      let subst =
        Aig.Opt.substitute_many h (fun v ->
            if v = G.var_of_lit red then
              Some (G.lit_notif b (G.is_complemented red))
            else None)
      in
      prove (name ^ " substitute_many") h subst)
    (Lazy.force wide_benchmarks)

let test_sweep_preserves_wide () =
  List.iter
    (fun (name, g) ->
      let swept, stats =
        Cec.sat_sweep ~num_patterns:256 ~rounds:4 g
      in
      check_bool (name ^ ": no growth") true
        (stats.Cec.nodes_after <= stats.Cec.nodes_before);
      prove (name ^ " sat_sweep") g swept)
    (Lazy.force wide_benchmarks)

(* ---- metamorphic regression: synth back-ends, wide operands ---- *)

let word g ~base ~width = Array.init width (fun i -> G.input g (base + i))

let test_arith_backends () =
  (* Borrow-out of a subtractor and the dedicated comparator are two
     independent constructions of unsigned a < b (24 inputs). *)
  let width = 12 in
  let g1 = G.create ~num_inputs:(2 * width) () in
  let a = word g1 ~base:0 ~width and b = word g1 ~base:width ~width in
  let _, borrow = Synth.Arith.subtractor g1 a b in
  G.set_output g1 borrow;
  let g2 = G.create ~num_inputs:(2 * width) () in
  let a = word g2 ~base:0 ~width and b = word g2 ~base:width ~width in
  G.set_output g2 (Synth.Arith.less_than g2 a b);
  prove "subtractor borrow vs less_than" g1 g2;
  (* equals_const against a hand-built conjunction (22 inputs). *)
  let k = 0x2A9F55 land ((1 lsl 22) - 1) in
  let g3 = G.create ~num_inputs:22 () in
  G.set_output g3 (Synth.Arith.equals_const g3 (word g3 ~base:0 ~width:22) k);
  let g4 = G.create ~num_inputs:22 () in
  G.set_output g4
    (G.and_list g4
       (List.init 22 (fun i ->
            G.lit_notif (G.input g4 i) (k lsr i land 1 = 0))));
  prove "equals_const vs and_list" g3 g4

let test_lut_parity_backends () =
  (* A 4-input XOR LUT composed with the parity of the remaining bits must
     equal the parity of all 22 bits. *)
  let n = 22 in
  let g1 = G.create ~num_inputs:n () in
  let lut_inputs = Array.init 4 (G.input g1) in
  let truth =
    Array.init 16 (fun i ->
        (i land 1) lxor (i lsr 1 land 1) lxor (i lsr 2 land 1)
        lxor (i lsr 3 land 1)
        = 1)
  in
  let lut = Synth.Lut_synth.lit_of_lut g1 ~inputs:lut_inputs ~truth in
  let rest =
    Synth.Arith.parity g1 (Array.init (n - 4) (fun i -> G.input g1 (4 + i)))
  in
  G.set_output g1 (G.xor_ g1 lut rest);
  let g2 = G.create ~num_inputs:n () in
  G.set_output g2 (Synth.Arith.parity g2 (Array.init n (G.input g2)));
  prove "lut xor4 + parity vs parity" g1 g2

let test_majority_backends () =
  (* Three constructions of 21-input majority: the dedicated builder, the
     symmetric-signature builder, and popcount + threshold. *)
  let n = 21 in
  let threshold = (n / 2) + 1 in
  let g1 = G.create ~num_inputs:n () in
  G.set_output g1 (Synth.Majority.majority g1 (List.init n (G.input g1)));
  let g2 = G.create ~num_inputs:n () in
  let signature = Array.init (n + 1) (fun c -> c >= threshold) in
  G.set_output g2
    (Synth.Symmetric.lit_of_signature g2 (Array.init n (G.input g2)) signature);
  prove "majority vs symmetric signature" g1 g2;
  let g3 = G.create ~num_inputs:n () in
  let pc = Synth.Arith.popcount g3 (Array.init n (G.input g3)) in
  let const_word k =
    Array.init (Array.length pc) (fun i ->
        if k lsr i land 1 = 1 then G.const_true else G.const_false)
  in
  G.set_output g3
    (G.lit_not (Synth.Arith.less_than g3 pc (const_word threshold)));
  prove "majority vs popcount threshold" g1 g3

let test_sop_backend () =
  let n = 22 in
  let cube chars =
    let s = Bytes.make n '-' in
    List.iter (fun (i, c) -> Bytes.set s i c) chars;
    Bytes.to_string s
  in
  let c1 = cube [ (0, '1'); (21, '1') ] in
  let c2 = cube [ (3, '0'); (10, '1') ] in
  let cover = Sop.Cover.of_strings [ c1; c2 ] in
  let g1 = Synth.Sop_synth.aig_of_cover cover in
  let g2 = G.create ~num_inputs:n () in
  let x i = G.input g2 i in
  G.set_output g2
    (G.or_ g2
       (G.and_ g2 (x 0) (x 21))
       (G.and_ g2 (G.lit_not (x 3)) (x 10)));
  prove "sop cover vs direct" g1 g2;
  let g3 = Synth.Sop_synth.aig_of_cover ~complemented:true cover in
  G.set_output g2 (G.lit_not (G.output g2));
  prove "complemented sop cover" g3 g2

let test_tree_backend () =
  (* A depth-5 decision tree over scattered wide features, synthesized by
     the back-end and rebuilt by hand as muxes. *)
  let n = 24 in
  let rec build depth feat =
    if depth = 0 then Dtree.Tree.Leaf (feat mod 3 = 0)
    else
      Dtree.Tree.Node
        {
          feature = (5 * feat) mod n;
          low = build (depth - 1) (feat + 1);
          high = build (depth - 1) (feat + 2);
        }
  in
  let tree = build 5 1 in
  let g1 = Synth.Tree_synth.aig_of_tree ~num_inputs:n tree in
  let g2 = G.create ~num_inputs:n () in
  let rec lit_of = function
    | Dtree.Tree.Leaf true -> G.const_true
    | Dtree.Tree.Leaf false -> G.const_false
    | Dtree.Tree.Node { feature; low; high } ->
        G.mux g2 ~sel:(G.input g2 feature) ~t1:(lit_of high) ~t0:(lit_of low)
  in
  G.set_output g2 (lit_of tree);
  prove "tree synth vs manual muxes" g1 g2

let suites =
  [ ( "cec",
      [ Alcotest.test_case "xor two ways" `Quick test_xor_two_ways;
        Alcotest.test_case "counterexample" `Quick test_counterexample;
        Alcotest.test_case "constant cases" `Quick test_constant_cases;
        Alcotest.test_case "multi output" `Quick test_multi_output;
        Alcotest.test_case "cross-check vs bdd" `Quick test_cross_check_bdd;
        Alcotest.test_case "multi-output cross-check vs bdd" `Quick
          test_cross_check_bdd_multi;
        Alcotest.test_case "forest-ex52 proved" `Quick test_forest_ex52;
        Alcotest.test_case "conflict budget is a total" `Quick
          test_conflict_budget;
        Alcotest.test_case "sweep reduces" `Quick test_sweep_reduces;
        Alcotest.test_case "sweep preserves (random)" `Quick
          test_sweep_preserves_random;
        Alcotest.test_case "opt passes preserve (wide)" `Quick
          test_opt_passes_preserve;
        Alcotest.test_case "substitute_many preserves (wide)" `Quick
          test_substitute_many_preserves;
        Alcotest.test_case "sat_sweep preserves (wide)" `Quick
          test_sweep_preserves_wide;
        Alcotest.test_case "arith back-ends (wide)" `Quick test_arith_backends;
        Alcotest.test_case "lut/parity back-ends (wide)" `Quick
          test_lut_parity_backends;
        Alcotest.test_case "majority back-ends (wide)" `Quick
          test_majority_backends;
        Alcotest.test_case "sop back-end (wide)" `Quick test_sop_backend;
        Alcotest.test_case "tree back-end (wide)" `Quick test_tree_backend ] )
  ]
