(* Tests of the benchmark itself (not of the library it measures).

     test_perfbench.exe --lsml PATH --benchmark-json PATH *)

open Perfbench
module G = Aig.Graph
module J = Serve.Json
module S = Benchgen.Suite

let lsml = ref "lsml.exe"
let benchmark_json = ref "BENCHMARK.json"

(* ---- BENCHMARK.json ---- *)

let spec () =
  let ic = open_in_bin !benchmark_json in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  J.parse text

let named_units key =
  match J.member key (spec ()) with
  | Some (J.List xs) ->
      List.map
        (fun x ->
          match (J.member "name" x, J.member "unit" x) with
          | Some (J.Str n), Some (J.Str u) -> (n, u)
          | _ -> Alcotest.fail ("malformed entry under " ^ key))
        xs
  | _ -> Alcotest.fail ("BENCHMARK.json has no list " ^ key)

(* A printed result line, parsed back: (name, unit) of every metric. *)
let printed metrics =
  let line = Common.result_line ~correct:true ~attempted:1 ~failed:0 metrics in
  match J.member "metrics" (J.parse line) with
  | Some (J.Obj fields) ->
      List.map
        (fun (name, v) ->
          match J.member "unit" v with
          | Some (J.Str u) -> (name, u)
          | _ -> Alcotest.fail ("metric without a unit: " ^ name))
        fields
  | _ -> Alcotest.fail "result line has no metrics object"

(* ---- smoke runs ---- *)

let smoke_e2e : (string * (string * string) list) list ref = ref []

let smoke name run () =
  let lg = Common.ledger () in
  let o = run lg in
  List.iter prerr_endline lg.Common.problems;
  Alcotest.(check (list string)) "no failed check" [] lg.Common.problems;
  Alcotest.(check bool) "outputs were checked" true (lg.Common.attempted > 0);
  List.iter
    (fun (x : Common.metric) ->
      if not (Float.is_finite x.Common.value) then
        Alcotest.failf "%s: %s is not a number" name x.Common.name)
    (o.Workloads.e2e @ o.Workloads.layers);
  smoke_e2e := (name, printed o.Workloads.e2e) :: !smoke_e2e;
  Alcotest.(check (list (pair string string)))
    "traced run prints every per-layer metric"
    (named_units "per_layer")
    (printed (Layers.complete o.Workloads.layers))

let smoke_grid =
  smoke "grid"
    (Workloads.run_grid ~size:Workloads.Tiny ~jobs:2 ~seed:3 ~seconds:0.5 ~trace:true)

let smoke_exact =
  smoke "exact" (Workloads.run_exact ~size:Workloads.Tiny ~seed:3 ~seconds:0.5 ~trace:true)

let smoke_serve () =
  smoke "serve"
    (Workloads.run_serve ~size:Workloads.Tiny ~lsml:!lsml ~jobs:2 ~seed:3 ~seconds:0.5 ~trace:true)
    ()

(* ---- BENCHMARK.json against what the runs print ---- *)

let names_match () =
  let e2e = named_units "end_to_end" in
  Alcotest.(check int) "all three workloads ran" 3 (List.length !smoke_e2e);
  List.iter
    (fun (name, printed) ->
      Alcotest.(check (list (pair string string)))
        (name ^ " prints every end-to-end metric") e2e printed)
    !smoke_e2e;
  Alcotest.(check (list (pair string string)))
    "per-layer metrics" (named_units "per_layer") Layers.all;
  let workloads =
    match J.member "workloads" (spec ()) with
    | Some (J.List ws) ->
        List.filter_map (fun w -> Option.bind (J.member "name" w) J.get_string) ws
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" [ "grid"; "exact"; "serve" ] workloads

(* ---- each check trips on a wrong input ---- *)

let tiny_instance () =
  S.instantiate ~sizes:{ S.train = 64; valid = 64; test = 64 } ~seed:1 (S.benchmark 30)

(* A chain of [n] distinct AND nodes over the inputs. *)
let chain ~num_inputs n =
  let g = G.create ~num_inputs () in
  let acc = ref (G.input g 0) in
  for k = 1 to n do
    acc := G.and_ g !acc (G.lit_notif (G.input g (k mod num_inputs)) (k / num_inputs mod 2 = 1))
  done;
  G.set_output g !acc;
  g

let grid_over_budget () =
  let inst = tiny_instance () in
  let n = inst.S.spec.S.num_inputs in
  let ok = chain ~num_inputs:n 10 in
  let big = chain ~num_inputs:n (Contest.Solver.gate_budget + 50) in
  let row g = Contest.Score.measure inst { Contest.Solver.aig = g; technique = "t" } in
  let problems circuit_of rows =
    Grid.check_rows ~circuit:(fun team _ -> Some (circuit_of team)) [ inst ] rows
  in
  Alcotest.(check int) "a within-budget row passes" 0
    (List.length (problems (fun _ -> ok) [ ("team1", [ row ok ]) ]));
  Alcotest.(check int) "an over-budget circuit is caught" 1
    (List.length (problems (fun _ -> big) [ ("team1", [ row big ]) ]));
  let wrong = { (row ok) with Contest.Score.test_acc = 0.0 } in
  Alcotest.(check int) "a misreported accuracy is caught" 1
    (List.length (problems (fun _ -> ok) [ ("team1", [ wrong ]) ]))

let exact_wrong_verdicts () =
  let inst = tiny_instance () in
  let n = inst.S.spec.S.num_inputs in
  let g = chain ~num_inputs:n 12 in
  let minterm = Array.init n (fun i -> i mod 3 = 0) in
  let it =
    { Exact.name = "chain"; circuit = g; train_set = inst.S.train; minterm; repairable = false }
  in
  let stats =
    { Cec.nodes_before = 0; nodes_after = 0; classes = 0; sat_calls = 0; merges = 0;
      refinements = 0; unknowns = 0 }
  in
  let outcome swept flipped =
    { Exact.sweep_ms = 0.0; sweep = stats; swept_ms = 0.0; swept; flipped_ms = 0.0; flipped;
      repair = None }
  in
  let flipped_at m = Cec.Counterexample m in
  Alcotest.(check int) "the known answers pass" 0
    (List.length (Exact.check_item it (outcome Cec.Proved (flipped_at minterm))));
  Alcotest.(check int) "a refuted sweep is caught" 1
    (List.length
       (Exact.check_item it (outcome (Cec.Counterexample minterm) (flipped_at minterm))));
  Alcotest.(check int) "a proved flip is caught" 1
    (List.length (Exact.check_item it (outcome Cec.Proved Cec.Proved)));
  let other = Array.map not minterm in
  Alcotest.(check int) "a counterexample off the flipped minterm is caught" 1
    (List.length (Exact.check_item it (outcome Cec.Proved (flipped_at other))));
  (* Repair: a result with more training errors, or over the budget. *)
  let rstats =
    { Repair.iterations = 0; cex_batches = 0; counterexamples = 0; resub_patches = 0;
      mux_patches = 0; sweeps = 0; sat_conflicts = 0; nodes_before = 0; nodes_after = 0;
      train_errors_before = 0; train_errors_after = 0; stopped = Repair.Exact }
  in
  let complement = G.create ~num_inputs:n () in
  G.set_output complement (G.lit_not (G.import complement ~src:g));
  let better, worse =
    if Exact.train_errors complement inst.S.train > Exact.train_errors g inst.S.train then
      (g, complement)
    else (complement, g)
  in
  let repaired r =
    let it = { it with Exact.circuit = better } in
    Exact.check_item it
      { (outcome Cec.Proved (flipped_at minterm)) with Exact.repair = Some (r, rstats, 0.0) }
  in
  Alcotest.(check int) "a repair that keeps the errors passes" 0 (List.length (repaired better));
  Alcotest.(check int) "a repair that raises training errors is caught" 1
    (List.length (repaired worse));
  Alcotest.(check int) "a repair over the budget is caught" 1
    (List.length (repaired (chain ~num_inputs:n (Contest.Solver.gate_budget + 50))))

let serve_tampered_payload () =
  let payload = {|{"technique":"t","gates":1,"aag":"aag 1 1 0 1 0\n2\n2\n"}|} in
  let src = { Serve_wl.line = "{}"; payload; aag = "aag 1 1 0 1 0\n2\n2\n"; ds = 0 } in
  let reply ~typ ~cached p =
    Printf.sprintf {|{"id":null,"type":"%s","op":"solve","cached":%b,"result":%s}|} typ cached p
  in
  let sample r = { Serve_wl.kind = Serve_wl.Hit; line_sent = "{}"; latency_ms = 1.0; reply = r; src = Some src } in
  let check r = Serve_wl.check_sample [||] (sample r) in
  Alcotest.(check (option string)) "a replayed payload passes" None
    (check (reply ~typ:"result" ~cached:true payload));
  let tampered = String.map (fun c -> if c = '1' then '2' else c) payload in
  Alcotest.(check bool) "a tampered cached payload is caught" true
    (check (reply ~typ:"result" ~cached:true tampered) <> None);
  Alcotest.(check bool) "a degraded response is caught" true
    (check (reply ~typ:"degraded" ~cached:false payload) <> None)

let () =
  let rec parse = function
    | "--lsml" :: v :: rest -> lsml := v; parse rest
    | "--benchmark-json" :: v :: rest -> benchmark_json := v; parse rest
    | [] -> ()
    | a :: _ -> failwith ("test_perfbench: unexpected argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "smoke",
        [
          Alcotest.test_case "grid" `Quick smoke_grid;
          Alcotest.test_case "exact" `Quick smoke_exact;
          Alcotest.test_case "serve" `Quick smoke_serve;
          Alcotest.test_case "names match BENCHMARK.json" `Quick names_match;
        ] );
      ( "checks trip",
        [
          Alcotest.test_case "grid over budget" `Quick grid_over_budget;
          Alcotest.test_case "exact wrong verdicts" `Quick exact_wrong_verdicts;
          Alcotest.test_case "serve tampered payload" `Quick serve_tampered_payload;
        ] );
    ]
