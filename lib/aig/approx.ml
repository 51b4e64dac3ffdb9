type stats = {
  nodes_before : int;
  nodes_after : int;
  replacements : int;
}

(* Per-variable structural level (depth from the inputs). *)
let var_levels g =
  let level = Array.make (Graph.num_vars g) 0 in
  ignore
    (Graph.fold_ands g ~init:() ~f:(fun () var f0 f1 ->
         level.(var) <-
           1 + max level.(Graph.var_of_lit f0) level.(Graph.var_of_lit f1)));
  level

let approximate_once ?(num_patterns = 1024) ?patterns ?(protect_levels = 4)
    ?(batch_divisor = 8) st g ~budget =
  let g0 = Opt.cleanup g in
  let before = Graph.num_ands g0 in
  let replacements = ref 0 in
  let rec shrink g =
    Resil.Budget.check ();
    let n = Graph.num_ands g in
    if n <= budget then g
    else begin
      let columns =
        match patterns with
        | Some columns -> columns
        | None ->
            Sim.random_patterns st ~num_inputs:(Graph.num_inputs g)
              ~num_patterns
      in
      let num_patterns =
        if Array.length columns = 0 then num_patterns
        else Words.length columns.(0)
      in
      let sigs = Sim.Engine.signatures (Sim.Engine.for_domain ()) g columns in
      let level = var_levels g in
      let out_level = level.(Graph.var_of_lit (Graph.output g)) in
      let protect = max 0 (out_level - protect_levels) in
      (* Rank AND variables by how often they are constant; nodes at or
         above the protection level are skipped so the output does not
         collapse to a constant immediately. *)
      let candidates =
        Graph.fold_ands g ~init:[] ~f:(fun acc var _ _ ->
            if level.(var) >= protect && out_level > protect_levels then acc
            else begin
              let ones = Words.popcount sigs.(var) in
              let zeros = num_patterns - ones in
              let const_lit =
                if zeros >= ones then Graph.const_false else Graph.const_true
              in
              (* Prefer the most-constant nodes and, among ties, the
                 shallowest: leaf-side replacements disturb less
                 downstream logic. *)
              ((max zeros ones, - level.(var)), var, const_lit) :: acc
            end)
      in
      match candidates with
      | [] -> g (* everything protected: give up rather than loop *)
      | _ ->
          let ranked =
            List.sort (fun (a, _, _) (b, _, _) -> compare b a) candidates
          in
          let batch = max 1 ((n - budget) / batch_divisor) in
          let chosen = List.filteri (fun i _ -> i < batch) ranked in
          let table = Hashtbl.create 16 in
          List.iter (fun (_, var, lit) -> Hashtbl.replace table var lit) chosen;
          replacements := !replacements + Hashtbl.length table;
          let g' = Opt.substitute_many g (Hashtbl.find_opt table) in
          if Graph.num_ands g' < n then shrink g'
          else
            (* No progress (e.g. replacements were all off-cone): force the
               single best candidate through. *)
            let _, var, lit = List.hd ranked in
            let g'' =
              Opt.substitute g ~var ~by:lit
            in
            if Graph.num_ands g'' < n then shrink g'' else g''
    end
  in
  let result = shrink g0 in
  ( result,
    {
      nodes_before = before;
      nodes_after = Graph.num_ands result;
      replacements = !replacements;
    } )

let c_replacements = Telemetry.counter "approx.replacements"

let approximate ?num_patterns ?patterns ?(protect_levels = 4) ?batch_divisor st
    g ~budget =
  Telemetry.span_ret ~cat:"aig" "approx"
    ~args:(fun (result, stats) ->
      [
        ("before", Telemetry.Int stats.nodes_before);
        ("after", Telemetry.Int (Graph.num_ands result));
        ("replacements", Telemetry.Int stats.replacements);
      ])
  @@ fun () ->
  (* The paper's threshold on levels is "explored through try and error" to
     keep the output from collapsing to a constant; reproduce that search:
     retry with more protected levels while the result degenerates and a
     non-degenerate result is still possible. *)
  let original_nontrivial = Opt.size g > 0 in
  (* The budget is a hard constraint: a more-protected retry is only
     accepted when it both meets the budget and is non-degenerate;
     otherwise the first in-budget (possibly constant) result stands. *)
  let first = ref None in
  let rec attempt protect tries =
    let result, stats =
      approximate_once ?num_patterns ?patterns ~protect_levels:protect
        ?batch_divisor st g ~budget
    in
    let in_budget = Graph.num_ands result <= budget in
    let collapsed = Graph.num_ands result = 0 && original_nontrivial in
    if !first = None && in_budget then first := Some (result, stats);
    if in_budget && not collapsed then (result, stats)
    else if tries > 0 then attempt ((2 * protect) + 2) (tries - 1)
    else
      match !first with
      | Some fallback -> fallback
      | None -> (result, stats)
  in
  let ((_, stats) as r) = attempt protect_levels 4 in
  Telemetry.add c_replacements stats.replacements;
  r
