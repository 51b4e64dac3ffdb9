module G = Aig.Graph

(* Conjunction of the cube's literals over the given input literals. *)
let lit_of_cube g inputs cube =
  if Array.length inputs <> Sop.Cube.num_vars cube then
    invalid_arg "Sop_synth.lit_of_cube: arity mismatch";
  let lits = ref [] in
  for i = Array.length inputs - 1 downto 0 do
    match Sop.Cube.lit cube i with
    | Sop.Cube.Free -> ()
    | Sop.Cube.Pos -> lits := inputs.(i) :: !lits
    | Sop.Cube.Neg -> lits := G.lit_not inputs.(i) :: !lits
  done;
  G.and_list g !lits

let lit_of_cover g inputs cover =
  G.or_list g (List.map (lit_of_cube g inputs) cover.Sop.Cover.cubes)

let aig_of_cover ?(complemented = false) cover =
  let n = cover.Sop.Cover.num_vars in
  let g = G.create ~num_inputs:n () in
  let inputs = Array.init n (G.input g) in
  let l = lit_of_cover g inputs cover in
  G.set_output g (G.lit_notif l complemented);
  g
