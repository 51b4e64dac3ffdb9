module G = Aig.Graph
module S = Sat.Solver
module Session = Session

type result =
  | Proved
  | Counterexample of bool array
  | Counterexample_at of int * bool array
  | Unknown of string

(* ------------------------------------------------------------------ *)
(* Simulation-guided merging (shared by sweeping and equivalence)      *)
(* ------------------------------------------------------------------ *)

(* Sweep signatures are kept as a (base, counterexample) pair rather than
   one concatenated vector: the base half depends only on the graph and the
   fixed random patterns, so it is simulated exactly once for the whole
   sweep, while only the small counterexample half is re-simulated each
   refinement round.  Classing on the pair is equivalent to classing on the
   concatenation (two pairs are equal iff the concatenations are). *)
module WH2 = Hashtbl.Make (struct
  type t = Words.t * Words.t

  let equal (b1, c1) (b2, c2) = Words.equal b1 b2 && Words.equal c1 c2
  let hash (b, c) = (Words.hash b * 31) + Words.hash c
end)

(* What one merge pass proved: [merged.(v)] is a node [v] equals
   (complemented when [merged_phase.(v)]), or -1. *)
type pass = {
  merged : int array;
  merged_phase : bool array;
  classes : int;
  sat_calls : int;
  merges : int;
  refinements : int;
  unknowns : int;
}

(* Random simulation partitions the nodes of the session's graph into
   candidate classes (complement pairs detected by canonizing each
   signature's polarity); candidate pairs are discharged oldest-node-first
   on the session's solver, each proof asserted there so later pairs in
   the same cone get it for free; counterexamples refine the partition for
   the next round.  [stop] sees every counterexample and may end the pass;
   so does a spent session budget.

   Given [settled], it is a FRAIG: each round also rebuilds the graph
   under the merges proved so far into a fresh strashed graph, so a node
   whose rebuilt AND already exists equals that node's first owner, with
   no SAT call (the equality is still asserted for later queries);
   [settled] sees the round's image of every variable and may end the
   pass.  The sweep goes without: its rebuild after the pass strashes the
   same way, and it needs no image during the pass. *)
let merge_pass ?settled ~num_patterns ~conflict_limit ~rounds ~seed ~stop s =
  let structural = Option.is_some settled in
  let g = Session.graph s in
  let n_inputs = G.num_inputs g in
  let num_patterns = max 64 num_patterns in
  let st = Random.State.make [| 0x57EE9; seed |] in
  let base = Aig.Sim.random_patterns st ~num_inputs:n_inputs ~num_patterns in
  let cexs = ref [] in
  let cex_columns () =
    let cex = Array.of_list (List.rev !cexs) in
    let total = Array.length cex in
    Array.init n_inputs (fun i -> Words.init total (fun j -> cex.(j).(i)))
  in
  let nv = G.num_vars g in
  let merged = Array.make nv (-1) in
  let merged_phase = Array.make nv false in
  let given_up = Array.make nv false in
  let image = Array.make (if structural then nv else 0) G.const_false in
  let sat_calls = ref 0 in
  let merges = ref 0 in
  let refinements = ref 0 in
  let unknowns = ref 0 in
  let classes = ref 0 in
  let halted = ref false in
  let merge v r ph =
    merged.(v) <- r;
    merged_phase.(v) <- ph;
    if structural then image.(v) <- G.lit_notif image.(r) ph;
    incr merges
  in
  (* Base signatures: one tiled simulation for the whole pass — every
     variable's vector is extracted while its tile is hot, through this
     domain's shared engine arena.  Phase normalization keys on bit 0 of
     the base half ([num_patterns >= 64], so bit 0 always exists),
     exactly as the concatenated signature's bit 0 did before the
     split. *)
  let engine = Aig.Sim.Engine.for_domain () in
  let base_sig = Aig.Sim.Engine.signatures engine g base in
  let base_phase = Array.map (fun w -> Words.get w 0) base_sig in
  let base_key =
    Array.mapi
      (fun v w -> if base_phase.(v) then Words.lognot w else w)
      base_sig
  in
  let round = ref 0 in
  let again = ref true in
  while !again && !round < rounds && not !halted do
    incr round;
    again := false;
    (* Counterexample signatures refresh each round on the same engine
       (one tiled pass, all vectors out). *)
    let cex_sig = Aig.Sim.Engine.signatures engine g (cex_columns ()) in
    let tbl = WH2.create 257 in
    classes := 0;
    (* Structural mode: this round's reduced graph and, per variable of
       it, the node of [g] that first built it.  [folds v] images [v] and
       says whether it needs no class check (merged, or just folded). *)
    let folds =
      if not structural then fun _ -> false
      else begin
        let f = G.create ~size_hint:(G.num_ands g) ~num_inputs:n_inputs () in
        let owner = Array.make nv (-1) in
        for v = 0 to n_inputs do
          image.(v) <- G.lit_of_var v false;
          owner.(v) <- v
        done;
        let img l = G.lit_notif image.(G.var_of_lit l) (G.is_complemented l) in
        fun v ->
          G.is_and_var g v
          &&
          if merged.(v) >= 0 then begin
            image.(v) <- G.lit_notif image.(merged.(v)) merged_phase.(v);
            true
          end
          else begin
            let f0, f1 = G.fanins g v in
            let before = G.num_ands f in
            let l = G.and_ f (img f0) (img f1) in
            if G.num_ands f > before then begin
              image.(v) <- l;
              owner.(G.var_of_lit l) <- v;
              false
            end
            else begin
              let u = owner.(G.var_of_lit l) in
              let ph = G.is_complemented l in
              Session.assert_equal s (G.lit_of_var u false) (G.lit_of_var v ph);
              merge v u ph;
              true
            end
          end
      end
    in
    let v = ref 0 in
    while !v < nv && not !halted do
      let v' = !v in
      incr v;
      if (not (folds v')) && merged.(v') < 0 && not given_up.(v') then begin
        let phase = base_phase.(v') in
        let cw = cex_sig.(v') in
        let key = (base_key.(v'), if phase then Words.lognot cw else cw) in
        match WH2.find_opt tbl key with
        | None ->
            WH2.add tbl key (v', phase);
            incr classes
        | Some (r, rphase) ->
            (* Only AND nodes are merged; an input that collides with an
               earlier class simply stays unmerged (a counterexample will
               split it off in a later round if a node truly matches it). *)
            if G.is_and_var g v' then
              if Session.remaining s <= 0 then halted := true
              else begin
                let ph = phase <> rphase in
                incr sat_calls;
                match
                  Session.prove_equal s ~conflict_limit (G.lit_of_var r false)
                    (G.lit_of_var v' ph)
                with
                | `Equal -> merge v' r ph
                | `Differ ->
                    let cex = Session.counterexample s in
                    cexs := cex :: !cexs;
                    incr refinements;
                    again := true;
                    if stop cex then halted := true
                | `Unknown ->
                    given_up.(v') <- true;
                    incr unknowns
              end
      end
    done;
    (* Only a finished round has an image for every variable. *)
    match settled with
    | Some settled when (not !halted) && settled image -> halted := true
    | _ -> ()
  done;
  {
    merged;
    merged_phase;
    classes = !classes;
    sat_calls = !sat_calls;
    merges = !merges;
    refinements = !refinements;
    unknowns = !unknowns;
  }

(* ------------------------------------------------------------------ *)
(* FRAIG-style equivalence on one session                              *)
(* ------------------------------------------------------------------ *)

(* The stats of an equivalence check whose miter folded away during
   strashing: no SAT call happened. *)
let zero_stats =
  {
    S.decisions = 0;
    conflicts = 0;
    propagations = 0;
    restarts = 0;
    learned = 0;
  }

(* Conflicts of the first output query: small miters are decided within
   it, at the cost of one plain SAT call over the miter. *)
let first_slice = 1000

(* Conflicts per candidate pair of the merge pass. *)
let pair_limit = 1000

(* [acc] plus the effort between two snapshots of one solver; [learned]
   is a gauge, so it takes the later value. *)
let charge acc ~before ~after =
  {
    S.decisions = acc.S.decisions + after.S.decisions - before.S.decisions;
    conflicts = acc.S.conflicts + after.S.conflicts - before.S.conflicts;
    propagations =
      acc.S.propagations + after.S.propagations - before.S.propagations;
    restarts = acc.S.restarts + after.S.restarts - before.S.restarts;
    learned = after.S.learned;
  }

(* Decide, for each miter literal of [m], whether it can be 1, all on
   one session whose budget is [conflict_limit] conflicts in total.
   Constants fold without a solver.  Each other target first gets a
   [first_slice] query.  Targets still open then share one structural
   merge pass over the whole miter: a target whose image folds to false
   is proved, and a pair counterexample that sets an open target decides
   it on the spot.  Finally each open target gets a residue query with
   what is left, on a solver that keeps every proved equality and learned
   clause.  A target's stats are its own queries' effort; the merge pass
   is charged to the first open target, the one that triggered it. *)
let fraig ~conflict_limit m targets =
  let constant x =
    if x = G.const_false then Some Proved
    else if x = G.const_true then
      Some (Counterexample (Array.make (G.num_inputs m) false))
    else None
  in
  let verdicts = Array.map constant targets in
  let effort = Array.map (fun _ -> zero_stats) targets in
  let is_open i = verdicts.(i) = None in
  let settled () = Array.for_all Option.is_some verdicts in
  if not (settled ()) then begin
    let s = Session.create ~conflict_budget:conflict_limit m in
    let charged i f =
      let before = Session.stats s in
      f ();
      effort.(i) <- charge effort.(i) ~before ~after:(Session.stats s)
    in
    let query limit i x =
      if is_open i then
        charged i (fun () ->
            let l = Session.lit s x in
            match Session.solve ~assumptions:[ l ] ~conflict_limit:limit s with
            | S.Unsat ->
                Session.add_clause s [ S.lit_not l ];
                verdicts.(i) <- Some Proved
            | S.Sat ->
                verdicts.(i) <- Some (Counterexample (Session.counterexample s))
            | S.Unknown -> ())
    in
    Array.iteri (query first_slice) targets;
    let rec first_open i = if is_open i then i else first_open (i + 1) in
    if (not (settled ())) && Session.remaining s > 0 then begin
      let stop cex =
        Array.iteri
          (fun i x ->
            if is_open i && Session.value s x then
              verdicts.(i) <- Some (Counterexample cex))
          targets;
        settled ()
      in
      let fold image =
        Array.iteri
          (fun i x ->
            if
              is_open i
              && G.lit_notif image.(G.var_of_lit x) (G.is_complemented x)
                 = G.const_false
            then verdicts.(i) <- Some Proved)
          targets;
        settled ()
      in
      charged (first_open 0) (fun () ->
          ignore
            (merge_pass ~settled:fold ~num_patterns:1024
               ~conflict_limit:pair_limit ~rounds:8 ~seed:0 ~stop s));
      Array.iteri (query max_int) targets
    end
  end;
  Array.mapi
    (fun i v ->
      let r =
        match v with
        | Some r -> r
        | None ->
            Unknown
              (Printf.sprintf "SAT conflict limit (%d) exceeded" conflict_limit)
      in
      (r, effort.(i)))
    verdicts

let equivalent_stats ?(conflict_limit = 500_000) g1 g2 =
  if G.num_inputs g1 <> G.num_inputs g2 then
    invalid_arg "Cec.equivalent: input count mismatch";
  let n = G.num_inputs g1 in
  (* Import both sides into one graph: structural hashing unifies shared
     logic, so structurally similar circuits leave only a small residue
     for the SAT solver (often none: the XOR folds to constant false). *)
  let hint = G.num_ands g1 + G.num_ands g2 + 4 in
  let m = G.create ~size_hint:hint ~num_inputs:n () in
  let o1 = G.import m ~src:g1 in
  let o2 = G.import m ~src:g2 in
  (fraig ~conflict_limit m [| G.xor_ m o1 o2 |]).(0)

let equivalent ?conflict_limit g1 g2 =
  fst (equivalent_stats ?conflict_limit g1 g2)

let import_outputs m (mo : Aig.Multi.t) =
  let g = mo.Aig.Multi.graph in
  let saved = G.output g in
  let lits =
    Array.map
      (fun o ->
        G.set_output g o;
        G.import m ~src:g)
      mo.Aig.Multi.outputs
  in
  G.set_output g saved;
  lits

(* The first output pair whose XOR cone is true on [cex]: one graph
   evaluation per output, no SAT work — localization for free. *)
let localize m xors cex =
  let saved = G.output m in
  let rec go i =
    if i >= Array.length xors then None
    else begin
      G.set_output m xors.(i);
      if G.eval m cex then Some i else go (i + 1)
    end
  in
  let r = go 0 in
  G.set_output m saved;
  r

let multi_miter name m1 m2 =
  let g1 = m1.Aig.Multi.graph and g2 = m2.Aig.Multi.graph in
  if G.num_inputs g1 <> G.num_inputs g2 then
    invalid_arg (name ^ ": input count mismatch");
  if Aig.Multi.num_outputs m1 <> Aig.Multi.num_outputs m2 then
    invalid_arg (name ^ ": output count mismatch");
  let n = G.num_inputs g1 in
  let hint =
    G.num_ands g1 + G.num_ands g2 + (4 * Aig.Multi.num_outputs m1)
  in
  let m = G.create ~size_hint:hint ~num_inputs:n () in
  let o1 = import_outputs m m1 in
  let o2 = import_outputs m m2 in
  let xors = Array.map2 (fun a b -> G.xor_ m a b) o1 o2 in
  (m, xors)

let equivalent_multi ?(conflict_limit = 500_000) m1 m2 =
  let m, xors = multi_miter "Cec.equivalent_multi" m1 m2 in
  let x = G.or_list m (Array.to_list xors) in
  match fst (fraig ~conflict_limit m [| x |]).(0) with
  | Counterexample cex -> (
      match localize m xors cex with
      | Some i -> Counterexample_at (i, cex)
      | None -> Counterexample cex)
  | r -> r

let equivalent_per_output ?(conflict_limit = 500_000) m1 m2 =
  let m, xors = multi_miter "Cec.equivalent_per_output" m1 m2 in
  fraig ~conflict_limit m xors

(* ------------------------------------------------------------------ *)
(* Simulation-guided SAT sweeping                                      *)
(* ------------------------------------------------------------------ *)

type sweep_stats = {
  nodes_before : int;
  nodes_after : int;
  classes : int;
  sat_calls : int;
  merges : int;
  refinements : int;
  unknowns : int;
}

let sat_sweep ?(num_patterns = 1024) ?(conflict_limit = 1000) ?(rounds = 8)
    ?(seed = 0) g0 =
  let nodes_before = Aig.Opt.size g0 in
  let g = Aig.Opt.cleanup g0 in
  let n_inputs = G.num_inputs g in
  if G.num_ands g = 0 then
    ( g,
      {
        nodes_before;
        nodes_after = G.num_ands g;
        classes = 0;
        sat_calls = 0;
        merges = 0;
        refinements = 0;
        unknowns = 0;
      } )
  else begin
    let p =
      merge_pass ~num_patterns ~conflict_limit ~rounds ~seed
        ~stop:(fun _ -> false)
        (Session.create g)
    in
    (* Rebuild: merged nodes take their representative's literal (the
       representative is always earlier in topological order, so its image
       is already known). *)
    let fresh = G.create ~size_hint:(G.num_ands g) ~num_inputs:n_inputs () in
    let map = Array.make (G.num_vars g) G.const_false in
    for i = 0 to n_inputs - 1 do
      map.(1 + i) <- G.input fresh i
    done;
    let map_lit l = G.lit_notif map.(G.var_of_lit l) (G.is_complemented l) in
    ignore
      (G.fold_ands g ~init:() ~f:(fun () v f0 f1 ->
           map.(v) <-
             (if p.merged.(v) >= 0 then
                G.lit_notif map.(p.merged.(v)) p.merged_phase.(v)
              else G.and_ fresh (map_lit f0) (map_lit f1))));
    G.set_output fresh (map_lit (G.output g));
    let fresh = Aig.Opt.cleanup fresh in
    ( fresh,
      {
        nodes_before;
        nodes_after = G.num_ands fresh;
        classes = p.classes;
        sat_calls = p.sat_calls;
        merges = p.merges;
        refinements = p.refinements;
        unknowns = p.unknowns;
      } )
  end

let sweep ?seed g = fst (sat_sweep ?seed g)
