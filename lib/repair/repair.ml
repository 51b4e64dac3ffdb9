module G = Aig.Graph
module S = Sat.Solver
module Session = Cec.Session
module D = Data.Dataset
module W = Words
module T = Telemetry

type config = {
  seed : int;
  max_iterations : int;
  cex_batch : int;
  conflict_limit : int;
  gate_budget : int;
  sweep : bool;
}

let default_config =
  {
    seed = 0;
    max_iterations = 32;
    cex_batch = 16;
    conflict_limit = 20_000;
    gate_budget = 5000;
    sweep = true;
  }

type stopped = Exact | Budget_bound | Expired | Iteration_limit | Sat_limit

let stopped_to_string = function
  | Exact -> "exact"
  | Budget_bound -> "budget-bound"
  | Expired -> "expired"
  | Iteration_limit -> "iteration-limit"
  | Sat_limit -> "sat-limit"

type stats = {
  iterations : int;
  cex_batches : int;
  counterexamples : int;
  resub_patches : int;
  mux_patches : int;
  sweeps : int;
  sat_conflicts : int;
  nodes_before : int;
  nodes_after : int;
  train_errors_before : int;
  train_errors_after : int;
  stopped : stopped;
}

(* Telemetry handles are interned by name; declaring once at module load
   keeps the hot loop to counter bumps. *)
let c_iterations = T.counter "repair.iterations"
let c_batches = T.counter "repair.cex_batches"
let c_cex = T.counter "repair.counterexamples"
let c_resub = T.counter "repair.patches.resub"
let c_mux = T.counter "repair.patches.mux"
let c_sweeps = T.counter "repair.sweeps"
let c_conflicts = T.counter "repair.sat_conflicts"
let c_nodes_delta = T.counter "repair.nodes_delta"
let c_exact = T.counter "repair.exact"

(* ------------------------------------------------------------------ *)
(* Care-set specification                                              *)
(* ------------------------------------------------------------------ *)

(* Distinct sampled input vectors with majority-vote labels (ties break
   to false), sorted lexicographically: a conflicting duplicate can never
   be satisfied both ways, so aiming the miter at the majority label makes
   UNSAT the accuracy-maximal answer and keeps repair monotone. *)
let majority_minterms train =
  let tbl = Hashtbl.create 257 in
  for j = 0 to D.num_samples train - 1 do
    let r = D.row train j in
    let ones, zeros =
      match Hashtbl.find_opt tbl r with Some c -> c | None -> (0, 0)
    in
    if D.output_bit train j then Hashtbl.replace tbl r (ones + 1, zeros)
    else Hashtbl.replace tbl r (ones, zeros + 1)
  done;
  Hashtbl.fold (fun r (ones, zeros) acc -> (r, ones > zeros) :: acc) tbl []
  |> List.sort compare

(* A minterm as a left-deep AND chain in fixed input order: adjacent
   sorted minterms share prefixes, which structural hashing merges. *)
let minterm_lit g row =
  let acc = ref G.const_true in
  Array.iteri
    (fun i b -> acc := G.and_ g !acc (G.lit_notif (G.input g i) (not b)))
    row;
  !acc

let spec_of_dataset train =
  let minterms = majority_minterms train in
  let n = D.num_inputs train in
  let g = G.create ~size_hint:((List.length minterms * n) + 8) ~num_inputs:n () in
  let onset =
    List.filter_map
      (fun (r, label) -> if label then Some (minterm_lit g r) else None)
      minterms
  in
  G.set_output g (G.or_list g onset);
  g

(* ------------------------------------------------------------------ *)
(* Incremental miter                                                   *)
(* ------------------------------------------------------------------ *)

(* One append-only miter graph and one incremental session for the whole
   loop: the spec cone is encoded once, every patched candidate is
   imported on top (strashing shares what it can), and {!Cec.Session.sync}
   encodes only the AND nodes appended since. *)
type miter = {
  m : G.t;
  session : Session.t;
  care : G.lit;
  onset : G.lit;
}

let init_miter train minterms cand =
  let n = D.num_inputs train in
  let hint = G.num_ands cand + (List.length minterms * n) + 64 in
  let m = G.create ~size_hint:hint ~num_inputs:n () in
  let lits = List.map (fun (r, label) -> (minterm_lit m r, label)) minterms in
  let care = G.or_list m (List.map fst lits) in
  let onset =
    G.or_list m
      (List.filter_map (fun (l, label) -> if label then Some l else None) lits)
  in
  { m; session = Session.create m; care; onset }

(* Enumerate up to [batch] miter models under a throwaway selector: the
   miter constraint and the per-model blocking clauses are all guarded by
   [t], solved under the assumption [t], and retired with the unit [not t]
   so the next iteration's miter starts from a clean clause set (the
   learned clauses survive — that is the warm restart). *)
let enumerate mt ~batch ~conflict_limit xlit =
  let s = mt.session in
  let t = Session.selector s in
  Session.add_clause s [ S.lit_not t; Session.lit s xlit ];
  let rec go acc k =
    if k = 0 then (List.rev acc, `More)
    else
      match Session.solve ~assumptions:[ t ] ~conflict_limit s with
      | S.Sat ->
          let cex = Session.counterexample s in
          Session.add_clause s
            (S.lit_not t
            :: List.init (Array.length cex) (fun i ->
                   Session.lit s (G.lit_notif (G.input mt.m i) cex.(i))));
          go (cex :: acc) (k - 1)
      | S.Unsat -> (List.rev acc, `Unsat)
      | S.Unknown -> (List.rev acc, `Unknown)
  in
  let r = go [] batch in
  Session.retire s t;
  r

(* ------------------------------------------------------------------ *)
(* Patching                                                            *)
(* ------------------------------------------------------------------ *)

(* Is (AND of the kept cube literals, optionally skipping one) a subset
   of [wrong]?  Word-major with early abort: each 62-bit slice of the
   coverage is assembled in a register and tested before the next. *)
let cov_subset ~full ~lit_col kept ~skip ~wrong =
  let nw = W.num_words (W.length wrong) in
  let n = Array.length kept in
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < nw do
    let acc = ref (W.unsafe_word full !k) in
    for i = 0 to n - 1 do
      if kept.(i) && i <> skip then
        acc := !acc land W.unsafe_word (lit_col i) !k
    done;
    if !acc land lnot (W.unsafe_word wrong !k) <> 0 then ok := false;
    incr k
  done;
  !ok

let cov_of ~full ~lit_col kept =
  let cov = W.copy full in
  Array.iteri
    (fun i keep -> if keep then W.and_into ~dst:cov cov (lit_col i))
    kept;
  cov

(* Does the cube (row, kept) contain the point [p]? *)
let cube_covers (row, kept) p =
  let n = Array.length row in
  let rec go i = i >= n || ((not kept.(i)) || row.(i) = p.(i)) && go (i + 1) in
  go 0

(* Rebuild the candidate with the MUX patch applied: the union of cubes
   selects the complemented output — mux(corr, not out, out), built as
   out XOR corr so strashing keeps it to one extra level plus the cubes. *)
let apply_cubes cand cubes =
  let n = G.num_inputs cand in
  let fresh = G.create ~size_hint:(G.num_ands cand + 64) ~num_inputs:n () in
  let old = G.import fresh ~src:cand in
  let cube_lit (row, kept) =
    let lits = ref [] in
    for i = n - 1 downto 0 do
      if kept.(i) then
        lits := G.lit_notif (G.input fresh i) (not row.(i)) :: !lits
    done;
    G.and_list fresh !lits
  in
  let corr = G.or_list fresh (List.map cube_lit cubes) in
  G.set_output fresh (G.xor_ fresh old corr);
  Aig.Opt.cleanup fresh

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

(* No limit given: the count is always [Some]. *)
let errors_of engine g train =
  Option.get
    (Aig.Sim.Engine.disagreements engine g (D.columns train)
       ~expected:(D.outputs train))

(* Cleanup, then sweep, then approximate: whatever comes in, what goes
   into the loop respects the gate budget, so "at most [gate_budget]
   reachable nodes" holds unconditionally for the result. *)
let normalize cfg g =
  let g = Aig.Opt.cleanup g in
  if G.num_ands g <= cfg.gate_budget then (g, 0)
  else begin
    let g, sweeps =
      if cfg.sweep then (Cec.sweep ~seed:cfg.seed g, 1) else (g, 0)
    in
    if G.num_ands g <= cfg.gate_budget then (g, sweeps)
    else
      let st = Random.State.make [| 0x8e9a17; cfg.seed |] in
      let g, _ = Aig.Approx.approximate st g ~budget:cfg.gate_budget in
      (g, sweeps)
  end

let repair ?(config = default_config) ~train g0 =
  if G.num_inputs g0 <> D.num_inputs train then
    invalid_arg "Repair.repair: input count mismatch";
  let cfg = config in
  T.span_ret ~cat:"repair" "repair"
    ~args:(fun (_, st) ->
      [
        ("iterations", T.Int st.iterations);
        ("counterexamples", T.Int st.counterexamples);
        ("resub", T.Int st.resub_patches);
        ("mux", T.Int st.mux_patches);
        ("nodes_before", T.Int st.nodes_before);
        ("nodes_after", T.Int st.nodes_after);
        ("errors_before", T.Int st.train_errors_before);
        ("errors_after", T.Int st.train_errors_after);
        ("stopped", T.Str (stopped_to_string st.stopped));
      ])
  @@ fun () ->
  let nodes_before = Aig.Opt.size g0 in
  let start, sweeps0 = normalize cfg g0 in
  let finish ~errors_before ~conflicts ~iterations ~batches ~cex ~resubs
      ~muxes ~sweeps ~stopped result =
    let ns = D.num_samples train in
    let engine = Aig.Sim.Engine.for_domain () in
    let errors_after = if ns = 0 then 0 else errors_of engine result train in
    let nodes_after = G.num_ands result in
    T.add c_iterations iterations;
    T.add c_batches batches;
    T.add c_cex cex;
    T.add c_resub resubs;
    T.add c_mux muxes;
    T.add c_sweeps sweeps;
    T.add c_conflicts conflicts;
    T.add c_nodes_delta (nodes_after - nodes_before);
    if stopped = Exact then T.incr c_exact;
    ( result,
      {
        iterations;
        cex_batches = batches;
        counterexamples = cex;
        resub_patches = resubs;
        mux_patches = muxes;
        sweeps;
        sat_conflicts = conflicts;
        nodes_before;
        nodes_after;
        train_errors_before = errors_before;
        train_errors_after = errors_after;
        stopped;
      } )
  in
  if D.num_samples train = 0 then
    (* The care-set is empty: anything is exact on it. *)
    finish ~errors_before:0 ~conflicts:0 ~iterations:0 ~batches:0 ~cex:0
      ~resubs:0 ~muxes:0 ~sweeps:sweeps0 ~stopped:Exact start
  else begin
    let ns = D.num_samples train in
    let n = D.num_inputs train in
    let engine = Aig.Sim.Engine.for_domain () in
    let cols = D.columns train in
    let neg_cols = Array.map W.lognot cols in
    let full = W.init ns (fun _ -> true) in
    let minterms = majority_minterms train in
    let label_tbl = Hashtbl.create 257 in
    List.iter (fun (r, label) -> Hashtbl.replace label_tbl r label) minterms;
    (* Majority labels per sample: the quantity the miter minimizes. *)
    let target = W.init ns (fun j -> Hashtbl.find label_tbl (D.row train j)) in
    let mt = init_miter train minterms start in
    let errors_before = errors_of engine start train in
    let cand = ref start in
    let best = ref start in
    let best_err = ref errors_before in
    let best_gates = ref (G.num_ands start) in
    let iterations = ref 0 in
    let batches = ref 0 in
    let ncex = ref 0 in
    let resubs = ref 0 in
    let muxes = ref 0 in
    let sweeps = ref sweeps0 in
    let stop = ref None in
    let exact = ref false in
    let batch = max 1 cfg.cex_batch in
    (* Enforce the gate budget on a freshly patched candidate; [None]
       means even the exact sweep could not claw back enough headroom. *)
    let clamp g =
      let g = Aig.Opt.cleanup g in
      if G.num_ands g <= cfg.gate_budget then Some g
      else if not cfg.sweep then None
      else begin
        incr sweeps;
        let g = Cec.sweep ~seed:cfg.seed g in
        if G.num_ands g <= cfg.gate_budget then Some g else None
      end
    in
    let try_resub cexs =
      (* An existing node (either polarity) can replace the output when
         its signature fixes every counterexample of the batch and
         strictly lowers the majority-disagreement count: progress
         without adding a single gate.  Also returns the candidate's
         output row, which [mux_patch] reuses instead of re-simulating. *)
      let cex_mask = W.create ns in
      List.iter
        (fun cex ->
          let lit_col i = if cex.(i) then cols.(i) else neg_cols.(i) in
          let kept = Array.make n true in
          W.or_into ~dst:cex_mask cex_mask (cov_of ~full ~lit_col kept))
        cexs;
      let mask_pop = W.popcount cex_mask in
      let sigs = Aig.Sim.Engine.signatures engine !cand cols in
      let o = G.output !cand in
      let out =
        if G.is_complemented o then W.lognot sigs.(G.var_of_lit o)
        else sigs.(G.var_of_lit o)
      in
      let cur = W.popcount (W.logxor out target) in
      let found = ref None in
      let v = ref 0 in
      while !found = None && !v < Array.length sigs do
        let e = W.logxor sigs.(!v) target in
        let pe = W.popcount e in
        let me = W.count_and e cex_mask in
        if me = 0 && pe < cur then found := Some (G.lit_of_var !v false)
        else if mask_pop - me = 0 && ns - pe < cur then
          found := Some (G.lit_of_var !v true);
        incr v
      done;
      (!found, out)
    in
    let mux_patch out cexs =
      let corr = W.create ns in
      let wrong = ref (W.logxor out target) in
      let cubes = ref [] in
      List.iter
        (fun cex ->
          (* The candidate's value at the counterexample point, XOR-ed
             with the correction cubes accepted so far this batch. *)
          let cand_val = G.eval !cand cex in
          let corr_at = List.exists (fun c -> cube_covers c cex) !cubes in
          let cur_val = cand_val <> corr_at in
          match Hashtbl.find_opt label_tbl cex with
          | None -> () (* a care-set model is always a sampled row *)
          | Some desired when cur_val = desired -> () (* fixed already *)
          | Some _ ->
              let lit_col i = if cex.(i) then cols.(i) else neg_cols.(i) in
              let kept = Array.make n true in
              (* Don't-care expansion: drop literals (ascending) while
                 the widened cube only covers samples that are currently
                 wrong — flipping those is a fix, never a regression. *)
              for i = 0 to n - 1 do
                if cov_subset ~full ~lit_col kept ~skip:i ~wrong:!wrong then
                  kept.(i) <- false
              done;
              let cov = cov_of ~full ~lit_col kept in
              cubes := (Array.copy cex, kept) :: !cubes;
              incr muxes;
              W.or_into ~dst:corr corr cov;
              wrong := W.logxor (W.logxor out corr) target)
        cexs;
      match !cubes with
      | [] -> !cand
      | cubes -> apply_cubes !cand (List.rev cubes)
    in
    (try
       while !stop = None do
         if Resil.Budget.expired () then stop := Some Expired
         else if !iterations >= cfg.max_iterations then
           stop := Some Iteration_limit
         else begin
           incr iterations;
           let cl = G.import mt.m ~src:!cand in
           let x = G.and_ mt.m mt.care (G.xor_ mt.m cl mt.onset) in
           if x = G.const_false then begin
             exact := true;
             stop := Some Exact
           end
           else begin
             let cexs, status =
               if x = G.const_true then
                 (* Degenerate miter: every care point disagrees.  Take a
                    batch straight off the specification minterms. *)
                 ( List.filter_map
                     (fun (r, label) ->
                       if G.eval !cand r <> label then Some (Array.copy r)
                       else None)
                     minterms
                   |> List.filteri (fun i _ -> i < batch),
                   `More )
               else begin
                 Session.sync mt.session;
                 enumerate mt ~batch ~conflict_limit:cfg.conflict_limit x
               end
             in
             incr batches;
             ncex := !ncex + List.length cexs;
             match (cexs, status) with
             | [], `Unsat ->
                 exact := true;
                 stop := Some Exact
             | [], (`Unknown | `More) -> stop := Some Sat_limit
             | cexs, _ -> (
                 let patched =
                   match try_resub cexs with
                   | Some l, _ ->
                       (* Transient retarget: [!cand] may still be the
                          tracked best, so restore its output after the
                          cleanup copies out the resubstituted cone. *)
                       incr resubs;
                       let saved = G.output !cand in
                       G.set_output !cand l;
                       let patched = Aig.Opt.cleanup !cand in
                       G.set_output !cand saved;
                       patched
                   | None, out -> mux_patch out cexs
                 in
                 match clamp patched with
                 | None -> stop := Some Budget_bound
                 | Some patched ->
                     cand := patched;
                     let err = errors_of engine patched train in
                     let gates = G.num_ands patched in
                     if (err, gates) < (!best_err, !best_gates) then begin
                       best := patched;
                       best_err := err;
                       best_gates := gates
                     end)
           end
         end
       done
     with Resil.Budget.Timed_out -> stop := Some Expired);
    let stopped = match !stop with Some s -> s | None -> assert false in
    (* On [Exact] return the circuit that proved UNSAT: its disagreement
       count is the minimum possible, so the "best intermediate" order
       never prefers anything else, and the exactness guarantee (the
       QCheck [Cec.Proved] property) holds for what the caller gets. *)
    let result = if !exact then !cand else !best in
    finish ~errors_before
      ~conflicts:(Session.stats mt.session).S.conflicts
      ~iterations:!iterations ~batches:!batches ~cex:!ncex ~resubs:!resubs
      ~muxes:!muxes ~sweeps:!sweeps ~stopped result
  end
