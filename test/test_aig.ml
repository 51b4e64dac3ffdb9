module G = Aig.Graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build a graph for a named two-input function and check its truth table. *)
let check_tt name build table =
  let g = G.create ~num_inputs:2 () in
  let a = G.input g 0 and b = G.input g 1 in
  G.set_output g (build g a b);
  List.iteri
    (fun i expected ->
      let ia = i land 1 = 1 and ib = i land 2 = 2 in
      check_bool
        (Printf.sprintf "%s(%b,%b)" name ia ib)
        expected
        (G.eval g [| ia; ib |]))
    table

let test_gates () =
  check_tt "and" G.and_ [ false; false; false; true ];
  check_tt "or" G.or_ [ false; true; true; true ];
  check_tt "xor" G.xor_ [ false; true; true; false ];
  check_tt "xnor" G.xnor_ [ true; false; false; true ]

let test_strashing () =
  let g = G.create ~num_inputs:2 () in
  let a = G.input g 0 and b = G.input g 1 in
  let x = G.and_ g a b in
  let y = G.and_ g b a in
  check_int "commutative strash" x y;
  check_int "one node" 1 (G.num_ands g);
  check_int "a AND a = a" a (G.and_ g a a);
  check_int "a AND NOT a = 0" G.const_false (G.and_ g a (G.lit_not a));
  check_int "a AND 1 = a" a (G.and_ g a G.const_true);
  check_int "a AND 0 = 0" G.const_false (G.and_ g a G.const_false);
  check_int "still one node" 1 (G.num_ands g)

let test_mux_levels () =
  let g = G.create ~num_inputs:3 () in
  let s = G.input g 0 and t1 = G.input g 1 and t0 = G.input g 2 in
  G.set_output g (G.mux g ~sel:s ~t1 ~t0);
  for i = 0 to 7 do
    let inp = [| i land 1 = 1; i land 2 = 2; i land 4 = 4 |] in
    let expected = if inp.(0) then inp.(1) else inp.(2) in
    check_bool (Printf.sprintf "mux %d" i) expected (G.eval g inp)
  done;
  check_int "mux levels" 2 (G.levels g)

let test_and_list_balanced () =
  let n = 64 in
  let g = G.create ~num_inputs:n () in
  let inputs = List.init n (G.input g) in
  G.set_output g (G.and_list g inputs);
  check_int "levels log2" 6 (G.levels g);
  check_int "nodes n-1" (n - 1) (G.num_ands g);
  check_bool "all ones" true (G.eval g (Array.make n true));
  let almost = Array.make n true in
  almost.(37) <- false;
  check_bool "one zero" false (G.eval g almost)

let test_import () =
  let sub = G.create ~num_inputs:2 () in
  G.set_output sub (G.xor_ sub (G.input sub 0) (G.input sub 1));
  let g = G.create ~num_inputs:2 () in
  let l = G.import g ~src:sub in
  G.set_output g (G.lit_not l);
  check_bool "imported xnor(1,1)" true (G.eval g [| true; true |]);
  check_bool "imported xnor(1,0)" false (G.eval g [| true; false |])

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

let test_simulation_matches_eval () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 20 do
    let g = random_graph st ~num_inputs:6 ~num_nodes:30 in
    let n = 100 in
    let columns = Aig.Sim.random_patterns st ~num_inputs:6 ~num_patterns:n in
    let out = Aig.Sim.simulate g columns in
    for j = 0 to n - 1 do
      let inp = Array.init 6 (fun i -> Words.get columns.(i) j) in
      check_bool "sim vs eval" (G.eval g inp) (Words.get out j)
    done
  done

let test_io_roundtrip () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 10 do
    let g = random_graph st ~num_inputs:5 ~num_nodes:25 in
    let g' = Aig.Io.of_string (Aig.Io.to_string g) in
    check_int "same inputs" (G.num_inputs g) (G.num_inputs g');
    for i = 0 to 31 do
      let inp = Array.init 5 (fun k -> i lsr k land 1 = 1) in
      check_bool "same function" (G.eval g inp) (G.eval g' inp)
    done
  done

let test_io_errors () =
  let expect_failure name text =
    check_bool name true
      (try
         ignore (Aig.Io.of_string text);
         false
       with Aig.Io.Parse_error _ -> true)
  in
  expect_failure "empty" "";
  expect_failure "bad header" "aag x y\n";
  expect_failure "latches unsupported" "aag 1 0 1 1 0\n2\n2\n";
  expect_failure "multiple outputs" "aag 1 1 0 2 0\n2\n2\n2\n";
  expect_failure "truncated" "aag 2 1 0 1 1\n2\n4\n";
  expect_failure "gapped numbering" "aag 3 1 0 1 1\n2\n6\n4 6 2\n";
  expect_failure "huge header" "aag 999999999 1 0 1 1\n2\n4\n4 2 2\n";
  expect_failure "use before definition" "aag 3 1 0 1 2\n2\n6\n4 6 2\n6 2 2\n"

let test_cleanup_drops_dangling () =
  let g = G.create ~num_inputs:3 () in
  let a = G.input g 0 and b = G.input g 1 and c = G.input g 2 in
  let keep = G.and_ g a b in
  let _dangling = G.and_ g (G.and_ g b c) (G.lit_not a) in
  G.set_output g keep;
  check_int "before" 3 (G.num_ands g);
  check_int "reachable size" 1 (Aig.Opt.size g);
  let g' = Aig.Opt.cleanup g in
  check_int "after cleanup" 1 (G.num_ands g');
  check_bool "function preserved" true (G.eval g' [| true; true; false |])

let test_substitute () =
  let g = G.create ~num_inputs:2 () in
  let a = G.input g 0 and b = G.input g 1 in
  let x = G.and_ g a b in
  G.set_output g (G.or_ g x (G.lit_not a));
  (* Replace the AND(a,b) node by constant false: output = NOT a. *)
  let g' = Aig.Opt.substitute g ~var:(G.var_of_lit x) ~by:G.const_false in
  check_bool "subst(1,1)" false (G.eval g' [| true; true |]);
  check_bool "subst(0,0)" true (G.eval g' [| false; false |])

let test_remap_inputs () =
  (* f(x0, x1) = x0 AND NOT x1 lifted to a 5-input space as inputs 3, 1. *)
  let src = G.create ~num_inputs:2 () in
  G.set_output src (G.and_ src (G.input src 0) (G.lit_not (G.input src 1)));
  let lifted =
    Aig.Opt.remap_inputs src ~map:(fun i -> if i = 0 then 3 else 1) ~num_inputs:5
  in
  check_int "five inputs" 5 (G.num_inputs lifted);
  for v = 0 to 31 do
    let b = Array.init 5 (fun k -> v lsr k land 1 = 1) in
    check_bool "remapped semantics" (b.(3) && not b.(1)) (G.eval lifted b)
  done;
  Alcotest.check_raises "range check"
    (Invalid_argument "Opt.remap_inputs: mapped index out of range") (fun () ->
      ignore (Aig.Opt.remap_inputs src ~map:(fun _ -> 7) ~num_inputs:5))

let test_vote3 () =
  let constant v =
    let g = G.create ~num_inputs:1 () in
    G.set_output g (if v then G.const_true else G.const_false);
    g
  in
  let ident =
    let g = G.create ~num_inputs:1 () in
    G.set_output g (G.input g 0);
    g
  in
  let voted = Aig.Opt.vote3 (constant true) (constant false) ident in
  check_bool "vote follows ident(1)" true (G.eval voted [| true |]);
  check_bool "vote follows ident(0)" false (G.eval voted [| false |])

let test_approximate_budget () =
  let st = Random.State.make [| 5 |] in
  (* Parity of 16 inputs: every node is in the output cone (45 ANDs). *)
  let g = G.create ~num_inputs:16 () in
  let out =
    List.fold_left (G.xor_ g) G.const_false (List.init 16 (G.input g))
  in
  G.set_output g out;
  let budget = 20 in
  let g', stats = Aig.Approx.approximate ~num_patterns:256 st g ~budget in
  check_bool "met budget" true (G.num_ands g' <= budget);
  check_bool "did replace" true (stats.Aig.Approx.replacements > 0);
  check_int "stats after" (G.num_ands g') stats.Aig.Approx.nodes_after

let test_approx_keeps_easy_function () =
  (* A single AND of 4 inputs approximated with a generous budget must be
     untouched. *)
  let g = G.create ~num_inputs:4 () in
  G.set_output g (G.and_list g (List.init 4 (G.input g)));
  let st = Random.State.make [| 1 |] in
  let g', stats = Aig.Approx.approximate st g ~budget:10 in
  check_int "unchanged" 3 (G.num_ands g');
  check_int "no replacements" 0 stats.Aig.Approx.replacements

let test_balance_chain () =
  (* A left-leaning AND chain of 32 literals balances to log depth. *)
  let n = 32 in
  let g = G.create ~num_inputs:n () in
  let chain =
    List.fold_left (fun acc i -> G.and_ g acc (G.input g i)) (G.input g 0)
      (List.init (n - 1) (fun i -> i + 1))
  in
  G.set_output g chain;
  check_int "chain depth" (n - 1) (G.levels g);
  let b = Aig.Opt.balance g in
  check_int "balanced depth" 5 (G.levels b);
  check_int "same node count" (n - 1) (G.num_ands b);
  for _ = 1 to 50 do
    let st = Random.State.make [| 91 |] in
    let bits = Array.init n (fun _ -> Random.State.bool st) in
    check_bool "same function" (G.eval g bits) (G.eval b bits)
  done

let prop_balance_preserves_function =
  QCheck.Test.make ~count:100 ~name:"balance preserves function"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_graph st ~num_inputs:5 ~num_nodes:40 in
      let b = Aig.Opt.balance g in
      List.for_all
        (fun i ->
          let inp = Array.init 5 (fun k -> i lsr k land 1 = 1) in
          G.eval g inp = G.eval b inp)
        (List.init 32 Fun.id)
      && G.levels b <= G.levels g)

let test_multi_output () =
  (* Full adder: sum and carry share logic. *)
  let g = G.create ~num_inputs:3 () in
  let a = G.input g 0 and b = G.input g 1 and cin = G.input g 2 in
  let axb = G.xor_ g a b in
  let sum = G.xor_ g axb cin in
  let carry = G.or_ g (G.and_ g a b) (G.and_ g axb cin) in
  let m = Aig.Multi.create g [| sum; carry |] in
  check_int "outputs" 2 (Aig.Multi.num_outputs m);
  check_bool "sharing detected" true
    (Aig.Multi.size m < Aig.Multi.separate_size m);
  for v = 0 to 7 do
    let bits = Array.init 3 (fun k -> v lsr k land 1 = 1) in
    let ones = Array.fold_left (fun acc x -> acc + if x then 1 else 0) 0 bits in
    (match Aig.Multi.eval m bits with
    | [| s; c |] ->
        check_bool "sum" (ones land 1 = 1) s;
        check_bool "carry" (ones >= 2) c
    | _ -> Alcotest.fail "two outputs expected")
  done;
  (* AAG round-trip preserves both outputs. *)
  let back = Aig.Multi.of_string (Aig.Multi.to_string m) in
  for v = 0 to 7 do
    let bits = Array.init 3 (fun k -> v lsr k land 1 = 1) in
    check_bool "roundtrip" (Aig.Multi.eval m bits = Aig.Multi.eval back bits) true
  done;
  Alcotest.check_raises "empty outputs"
    (Invalid_argument "Multi.create: need at least one output") (fun () ->
      ignore (Aig.Multi.create g [||]))

(* Property: cleanup preserves the function. *)
let prop_cleanup =
  QCheck.Test.make ~count:100 ~name:"cleanup preserves function"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_graph st ~num_inputs:5 ~num_nodes:40 in
      let g' = Aig.Opt.cleanup g in
      List.for_all
        (fun i ->
          let inp = Array.init 5 (fun k -> i lsr k land 1 = 1) in
          G.eval g inp = G.eval g' inp)
        (List.init 32 Fun.id)
      && G.num_ands g' <= G.num_ands g)

let prop_import =
  QCheck.Test.make ~count:100 ~name:"import preserves function"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let src = random_graph st ~num_inputs:4 ~num_nodes:20 in
      let g = G.create ~num_inputs:4 () in
      G.set_output g (G.import g ~src);
      List.for_all
        (fun i ->
          let inp = Array.init 4 (fun k -> i lsr k land 1 = 1) in
          G.eval g inp = G.eval src inp)
        (List.init 16 Fun.id))

(* ------------------------------------------------------------------ *)
(* Simulation engine                                                   *)
(* ------------------------------------------------------------------ *)

module Engine = Aig.Sim.Engine

let prop_engine_matches_simulate =
  QCheck.Test.make ~count:100 ~name:"engine equals naive simulate/accuracy"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| 0xe61; seed |] in
      let num_inputs = 1 + Random.State.int st 6 in
      let g =
        random_graph st ~num_inputs ~num_nodes:(1 + Random.State.int st 60)
      in
      let n = 1 + Random.State.int st 200 in
      let columns = Aig.Sim.random_patterns st ~num_inputs ~num_patterns:n in
      let expected = Words.random st n in
      let e = Engine.create () in
      let o = G.output g in
      let row = (Engine.signatures e g columns).(G.var_of_lit o) in
      let out = if G.is_complemented o then Words.lognot row else row in
      Words.equal (Aig.Sim.simulate g columns) out
      && Aig.Sim.accuracy g columns expected
         = Engine.accuracy e g columns ~expected)

let prop_signatures_match_oracle =
  QCheck.Test.make ~count:100 ~name:"signatures equals simulate_all"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| 0x51c; seed |] in
      let num_inputs = 1 + Random.State.int st 6 in
      let g =
        random_graph st ~num_inputs ~num_nodes:(1 + Random.State.int st 60)
      in
      (* NOR nodes straight off the inputs: their complemented fan-ins
         set the bits past the pattern count in the final word, which the
         kernel must mask. *)
      for _ = 1 to 1 + Random.State.int st 4 do
        let i = Random.State.int st num_inputs
        and j = Random.State.int st num_inputs in
        G.set_output g
          (G.and_ g (G.lit_not (G.output g))
             (G.and_ g (G.lit_not (G.input g i)) (G.lit_not (G.input g j))))
      done;
      (* Mostly partial top words; every few seeds a whole number of
         words. *)
      let n =
        if seed mod 5 = 0 then Words.bits_per_word * (1 + Random.State.int st 8)
        else 1 + Random.State.int st 500
      in
      let columns = Aig.Sim.random_patterns st ~num_inputs ~num_patterns:n in
      let tile_words = 1 + Random.State.int st 6 in
      let oracle = Aig.Sim.simulate_all g columns in
      let sigs = Engine.signatures ~tile_words (Engine.create ()) g columns in
      Array.length sigs = Array.length oracle
      && Array.for_all2 Words.equal sigs oracle)

let prop_engine_early_exit =
  QCheck.Test.make ~count:100 ~name:"early-exit disagreement count is exact"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| 0xee; seed |] in
      let num_inputs = 1 + Random.State.int st 5 in
      let g =
        random_graph st ~num_inputs ~num_nodes:(1 + Random.State.int st 40)
      in
      let n = 1 + Random.State.int st 200 in
      let columns = Aig.Sim.random_patterns st ~num_inputs ~num_patterns:n in
      let expected = Words.random st n in
      let e = Engine.create () in
      let exact =
        Words.popcount (Words.logxor (Aig.Sim.simulate g columns) expected)
      in
      let limit = Random.State.int st (n + 1) in
      Engine.disagreements e g columns ~expected = Some exact
      &&
      match Engine.disagreements ~limit e g columns ~expected with
      | Some d -> d = exact && exact <= limit
      | None -> exact > limit)

(* ------------------------------------------------------------------ *)
(* Tiled candidate evaluation                                          *)
(* ------------------------------------------------------------------ *)

let test_batch_edges () =
  let st = Random.State.make [| 0xba7 |] in
  let num_inputs = 5 in
  let n = 300 (* several words, partial top word *) in
  let columns = Aig.Sim.random_patterns st ~num_inputs ~num_patterns:n in
  let expected = Words.random st n in
  let e = Engine.create () in
  (* One graph: equals the naive oracle bit for bit. *)
  let g = random_graph st ~num_inputs ~num_nodes:30 in
  Alcotest.(check (float 1e-12))
    "single graph accuracy"
    (Aig.Sim.accuracy g columns expected)
    (Engine.accuracy e g columns ~expected);
  (* Early-exit caller-limit edge: limit = d keeps the exact count,
     limit = d - 1 prunes. *)
  let d =
    match Engine.disagreements e g columns ~expected with
    | Some d -> d
    | None -> Alcotest.fail "expected an exact count"
  in
  (match Engine.disagreements ~limit:d e g columns ~expected with
  | Some d' -> check_int "limit = d stays exact" d d'
  | None -> Alcotest.fail "limit = d must not prune");
  if d > 0 then begin
    match Engine.disagreements ~limit:(d - 1) e g columns ~expected with
    | None -> ()
    | Some _ -> Alcotest.fail "limit = d - 1 must prune"
  end;
  (* Differing node counts on one engine, including a constant (0 ANDs):
     the arena and code buffers are reused across shapes. *)
  let const = G.create ~num_inputs () in
  G.set_output const G.const_true;
  let big = random_graph st ~num_inputs ~num_nodes:120 in
  List.iteri
    (fun i gi ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "ragged member %d" i)
        (Aig.Sim.accuracy gi columns expected)
        (Engine.accuracy e gi columns ~expected))
    [ const; g; big ];
  Alcotest.check_raises "tile_words >= 1"
    (Invalid_argument "Sim.Engine: tile_words must be >= 1") (fun () ->
      ignore (Engine.disagreements ~tile_words:0 e g columns ~expected))

let prop_incumbent_matches_sequential =
  QCheck.Test.make ~count:100 ~name:"incumbent pick equals sequential"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| 0xbab; seed |] in
      let num_inputs = 1 + Random.State.int st 6 in
      let ncand = 1 + Random.State.int st 8 in
      let graphs =
        Array.init ncand (fun _ ->
            random_graph st ~num_inputs
              ~num_nodes:(1 + Random.State.int st 80))
      in
      (* An exact duplicate of a random member ties it on count and gates:
         whichever copy is scored first must win. *)
      let graphs =
        Array.append graphs [| graphs.(Random.State.int st ncand) |]
      in
      let n = 1 + Random.State.int st 400 in
      let columns = Aig.Sim.random_patterns st ~num_inputs ~num_patterns:n in
      let expected = Words.random st n in
      let e = Engine.create () in
      let tile_words = 1 + Random.State.int st 6 in
      let accs_ok =
        Array.for_all
          (fun g ->
            Engine.accuracy ~tile_words e g columns ~expected
            = Aig.Sim.accuracy g columns expected)
          graphs
      in
      let exact =
        Array.map
          (fun g ->
            Words.popcount (Words.logxor (Aig.Sim.simulate g columns) expected))
          graphs
      in
      (* The lexicographic (count, gates) fold, first seen wins exact
         ties; [None] counts are skipped. *)
      let fold order count =
        let best = ref None in
        Array.iter
          (fun i ->
            match count i with
            | None -> ()
            | Some d -> (
                let gates = G.num_ands graphs.(i) in
                match !best with
                | Some (bd, bg, _) when d > bd || (d = bd && gates >= bg) -> ()
                | _ -> best := Some (d, gates, i)))
          order;
        match !best with Some (_, _, i) -> i | None -> -1
      in
      (* [Solver.pick_best]'s loop: each graph is scored with the best
         count so far as its limit.  Every [Some] must be exact and every
         [None] must exceed the incumbent's count. *)
      let incumbent order =
        let limit = ref max_int and ok = ref true in
        let winner =
          fold order (fun i ->
              let c =
                Engine.disagreements ~limit:!limit ~tile_words e graphs.(i)
                  columns ~expected
              in
              (match c with
              | Some d ->
                  if d <> exact.(i) then ok := false;
                  limit := min !limit d
              | None -> if exact.(i) <= !limit then ok := false);
              c)
        in
        !ok && winner = fold order (fun i -> Some exact.(i))
      in
      let forward = Array.init (Array.length graphs) Fun.id in
      let reversed = Array.of_list (List.rev (Array.to_list forward)) in
      (* The sequential winner scored last: nothing before it can be
         pruned by it. *)
      let winner_last =
        let w = fold forward (fun i -> Some exact.(i)) in
        Array.append
          (Array.of_list (List.filter (( <> ) w) (Array.to_list forward)))
          [| w |]
      in
      accs_ok && List.for_all incumbent [ forward; reversed; winner_last ])

let test_batch_gc_steady () =
  (* At steady state the tiled kernel must not allocate per tile: once
     the arenas are warm, a call spanning many tiles allocates exactly as
     many minor words as a call spanning one tile. *)
  let st = Random.State.make [| 0x6c |] in
  let num_inputs = 8 in
  let graphs =
    Array.init 6 (fun _ -> random_graph st ~num_inputs ~num_nodes:60)
  in
  let mk n =
    ( Aig.Sim.random_patterns st ~num_inputs ~num_patterns:n,
      Words.random st n )
  in
  let small_cols, small_exp = mk 62 (* one word: a single tile *) in
  let big_cols, big_exp = mk (62 * 16 * 12) (* 12 default-width tiles *) in
  let e = Engine.create () in
  let run cols exp =
    Array.iter
      (fun g -> ignore (Engine.disagreements e g cols ~expected:exp))
      graphs
  in
  (* Warm both shapes so arena growth is behind us. *)
  run big_cols big_exp;
  run small_cols small_exp;
  let alloc f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let small = alloc (fun () -> run small_cols small_exp) in
  let big = alloc (fun () -> run big_cols big_exp) in
  Alcotest.(check (float 0.0)) "no per-tile allocation" small big

let prop_import_skips_unreachable =
  QCheck.Test.make ~count:100 ~name:"import copies only the reachable cone"
    (QCheck.make QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let st = Random.State.make [| 0xdead; seed |] in
      let src = random_graph st ~num_inputs:4 ~num_nodes:40 in
      let g = G.create ~num_inputs:4 () in
      G.set_output g (G.import g ~src);
      G.num_ands g <= Aig.Opt.size src
      && List.for_all
           (fun i ->
             let inp = Array.init 4 (fun k -> i lsr k land 1 = 1) in
             G.eval g inp = G.eval src inp)
           (List.init 16 Fun.id))

let test_strash_stress () =
  (* Push the open-addressing table through several resizes, then verify
     every stored pair still dedups to its original node. *)
  let st = Random.State.make [| 0x5745 |] in
  let g = random_graph st ~num_inputs:10 ~num_nodes:10_000 in
  let before = G.num_ands g in
  let first = 1 + G.num_inputs g in
  for v = first to first + before - 1 do
    let f0, f1 = G.fanins g v in
    check_int "re-AND dedups" (G.lit_of_var v false) (G.and_ g f0 f1)
  done;
  check_int "no new nodes" before (G.num_ands g)

let test_size_hint () =
  let build hint =
    let g =
      match hint with
      | Some size_hint -> G.create ~size_hint ~num_inputs:6 ()
      | None -> G.create ~num_inputs:6 ()
    in
    let st = Random.State.make [| 0x517e |] in
    let pool = ref (List.init 6 (G.input g)) in
    for _ = 1 to 500 do
      let pick () =
        let l = List.nth !pool (Random.State.int st (List.length !pool)) in
        G.lit_notif l (Random.State.bool st)
      in
      pool := G.and_ g (pick ()) (pick ()) :: !pool
    done;
    G.set_output g (List.hd !pool);
    g
  in
  let plain = build None and hinted = build (Some 600) in
  check_int "same node count" (G.num_ands plain) (G.num_ands hinted);
  for i = 0 to 63 do
    let inp = Array.init 6 (fun k -> i lsr k land 1 = 1) in
    check_bool "same function" (G.eval plain inp) (G.eval hinted inp)
  done

let suites =
  [ ( "aig",
      [ Alcotest.test_case "gates" `Quick test_gates;
        Alcotest.test_case "strashing" `Quick test_strashing;
        Alcotest.test_case "mux and levels" `Quick test_mux_levels;
        Alcotest.test_case "balanced and_list" `Quick test_and_list_balanced;
        Alcotest.test_case "import" `Quick test_import;
        Alcotest.test_case "simulation vs eval" `Quick test_simulation_matches_eval;
        Alcotest.test_case "aag roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "aag parse errors" `Quick test_io_errors;
        Alcotest.test_case "cleanup" `Quick test_cleanup_drops_dangling;
        Alcotest.test_case "substitute" `Quick test_substitute;
        Alcotest.test_case "remap inputs" `Quick test_remap_inputs;
        Alcotest.test_case "vote3" `Quick test_vote3;
        Alcotest.test_case "approximate budget" `Quick test_approximate_budget;
        Alcotest.test_case "approximate no-op" `Quick test_approx_keeps_easy_function;
        Alcotest.test_case "balance chain" `Quick test_balance_chain;
        Alcotest.test_case "multi-output" `Quick test_multi_output;
        Alcotest.test_case "strash resize stress" `Quick test_strash_stress;
        Alcotest.test_case "size hint" `Quick test_size_hint;
        Alcotest.test_case "batch edge cases" `Quick test_batch_edges;
        Alcotest.test_case "batch zero alloc per tile" `Quick
          test_batch_gc_steady ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_cleanup; prop_import; prop_balance_preserves_function;
            prop_engine_matches_simulate; prop_signatures_match_oracle;
            prop_engine_early_exit; prop_incumbent_matches_sequential;
            prop_import_skips_unreachable ] ) ]
