module G = Aig.Graph
module S = Sat.Solver

type t = {
  g : G.t;
  solver : S.t;
  mutable sat : int array;  (* graph var -> SAT var, -1 if unencoded *)
  input_vars : int array;
  mutable encoded : int;  (* AND-index watermark *)
  budget : int;  (* total conflicts, [max_int] = unlimited *)
}

let sat_lit s l = S.lit_of_var s.sat.(G.var_of_lit l) (G.is_complemented l)

(* Constants never appear as fan-ins (construction folds them away), so
   every fan-in is an input or an earlier, already-encoded AND node. *)
let sync s =
  let nv = G.num_vars s.g in
  if nv > Array.length s.sat then begin
    let grown = Array.make (max nv (2 * Array.length s.sat)) (-1) in
    Array.blit s.sat 0 grown 0 (Array.length s.sat);
    s.sat <- grown
  end;
  G.iter_ands ~from:s.encoded s.g (fun v f0 f1 ->
      let sv = S.new_var s.solver in
      s.sat.(v) <- sv;
      let nl = S.lit_of_var sv false in
      let a = sat_lit s f0 and b = sat_lit s f1 in
      S.add_clause s.solver [ S.lit_not nl; a ];
      S.add_clause s.solver [ S.lit_not nl; b ];
      S.add_clause s.solver [ nl; S.lit_not a; S.lit_not b ]);
  s.encoded <- G.num_ands s.g

let create ?(conflict_budget = max_int) g =
  let solver = S.create () in
  let sat = Array.make (max 16 (G.num_vars g)) (-1) in
  let input_vars =
    Array.init (G.num_inputs g) (fun i ->
        let v = S.new_var solver in
        sat.(1 + i) <- v;
        v)
  in
  let s = { g; solver; sat; input_vars; encoded = 0; budget = conflict_budget } in
  sync s;
  s

let graph s = s.g

let lit s l =
  let v = G.var_of_lit l in
  if v = 0 then invalid_arg "Session.lit: constant literal";
  if v >= Array.length s.sat || s.sat.(v) < 0 then
    invalid_arg "Session.lit: node not encoded";
  sat_lit s l

let add_clause s c = S.add_clause s.solver c
let selector s = S.lit_of_var (S.new_var s.solver) false
let retire s t = S.add_clause s.solver [ S.lit_not t ]

let remaining s =
  if s.budget = max_int then max_int
  else s.budget - (S.stats s.solver).S.conflicts

let solve ?assumptions ~conflict_limit s =
  let left = remaining s in
  if left <= 0 then S.Unknown
  else S.solve ?assumptions ~conflict_limit:(min conflict_limit left) s.solver

let counterexample s = Array.map (S.value s.solver) s.input_vars

let value s l =
  let l = lit s l in
  S.value s.solver (S.var_of_lit l) <> S.is_negated l

let assert_equal s x y =
  if G.var_of_lit x = 0 then
    add_clause s [ lit s (G.lit_notif y (not (G.is_complemented x))) ]
  else begin
    let a = lit s x and b = lit s y in
    add_clause s [ a; S.lit_not b ];
    add_clause s [ S.lit_not a; b ]
  end

let prove_equal s ~conflict_limit x y =
  let r =
    if G.var_of_lit x = 0 then
      (* Against a constant, a difference is [y] taking the other value. *)
      solve
        ~assumptions:[ lit s (G.lit_notif y (G.is_complemented x)) ]
        ~conflict_limit s
    else begin
      (* One throwaway selector per pair: t -> (x <> y). *)
      let t = selector s in
      let a = lit s x and b = lit s y in
      add_clause s [ S.lit_not t; a; b ];
      add_clause s [ S.lit_not t; S.lit_not a; S.lit_not b ];
      let r = solve ~assumptions:[ t ] ~conflict_limit s in
      retire s t;
      r
    end
  in
  match r with
  | S.Unsat ->
      (* Assert the equality so later queries in the same cone get it. *)
      assert_equal s x y;
      `Equal
  | S.Sat -> `Differ
  | S.Unknown -> `Unknown

let stats s = S.stats s.solver
