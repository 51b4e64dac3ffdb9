let check_columns g columns =
  if Array.length columns <> Graph.num_inputs g then
    invalid_arg "Sim: column count must equal the number of inputs";
  if Array.length columns > 0 then begin
    let n = Words.length columns.(0) in
    Array.iter
      (fun c ->
        if Words.length c <> n then invalid_arg "Sim: ragged columns")
      columns;
    n
  end
  else 0

let simulate_all g columns =
  let n = check_columns g columns in
  let values = Array.make (Graph.num_vars g) (Words.create n) in
  values.(0) <- Words.create n;
  for i = 0 to Graph.num_inputs g - 1 do
    values.(1 + i) <- columns.(i)
  done;
  ignore
    (Graph.fold_ands g ~init:() ~f:(fun () var f0 f1 ->
         let dst = Words.create n in
         let a = values.(Graph.var_of_lit f0) and b = values.(Graph.var_of_lit f1) in
         (match (Graph.is_complemented f0, Graph.is_complemented f1) with
         | false, false -> Words.and_into ~dst a b
         | false, true -> Words.andnot_into ~dst a b
         | true, false -> Words.andnot_into ~dst b a
         | true, true ->
             Words.or_into ~dst a b;
             Words.not_into ~dst dst);
         values.(var) <- dst));
  values

let output_vector g values =
  let out = Graph.output g in
  let v = values.(Graph.var_of_lit out) in
  if Graph.is_complemented out then Words.lognot v else Words.copy v

let simulate g columns =
  let values = simulate_all g columns in
  output_vector g values

let random_patterns st ~num_inputs ~num_patterns =
  Array.init num_inputs (fun _ -> Words.random st num_patterns)

let accuracy g columns expected =
  let got = simulate g columns in
  let n = Words.length expected in
  if n = 0 then 1.0
  else
    let disagreements = Words.popcount (Words.logxor got expected) in
    1.0 -. (float_of_int disagreements /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Zero-allocation simulation engine: cache-blocked tiled kernels       *)
(* ------------------------------------------------------------------ *)

module Engine = struct
  let word_mask = (1 lsl Words.bits_per_word) - 1
  let c_words_simulated = Telemetry.counter "engine.words_simulated"
  let c_batch_candidates = Telemetry.counter "engine.batch_candidates"
  let c_batch_early_exits = Telemetry.counter "engine.batch_early_exits"

  (* Buffers reused across calls so the tiled kernel allocates nothing at
     steady state. *)
  type t = {
    mutable arena : int array;  (* tile arena: row [v] at [v * tile_words] *)
    mutable code : int array;  (* the graph's (dst var, f0, f1) triples *)
  }

  let create () = { arena = [||]; code = [||] }

  (* Tile width in words.  62 bits/word x 16 words = 992 patterns per
     tile: a 600-gate graph touches ~620 rows x 16 words = 80 KB per
     tile, which sits in L2 with the input rows hot in L1, instead of
     streaming a multi-megabyte full-width arena.  Chosen by the bench
     tile-size sweep (see EXPERIMENTS.md). *)
  let default_tile_words = 16

  (* Mask of the valid bits in the top word of an [n]-pattern row. *)
  let top_mask n =
    let r = n mod Words.bits_per_word in
    if r = 0 then word_mask else (1 lsl r) - 1

  let grow_exact arr needed =
    if Array.length arr >= needed then arr
    else Array.make (max needed (2 * Array.length arr)) 0

  (* Flatten the graph's AND nodes into (dst var, fanin0, fanin1) int
     triples: the per-tile inner loop then walks a flat code array instead
     of re-traversing the graph through a closure per tile.  Returns the
     end of the code. *)
  let compile e g =
    e.code <- grow_exact e.code (3 * Graph.num_ands g);
    let code = e.code in
    let pos = ref 0 in
    Graph.iter_ands g (fun var f0 f1 ->
        code.(!pos) <- var;
        code.(!pos + 1) <- f0;
        code.(!pos + 2) <- f1;
        pos := !pos + 3);
    !pos

  (* Copy the tile's words of every input column into rows 1..n_inputs.
     Row 0 (constant false) is zeroed once per call and never written by
     the kernels. *)
  let load_tile arena columns ~tw ~tile_off ~top =
    for i = 0 to Array.length columns - 1 do
      let base = (1 + i) * tw in
      let col = Array.unsafe_get columns i in
      for k = 0 to top do
        Array.unsafe_set arena (base + k)
          (Words.unsafe_word col (tile_off + k))
      done
    done

  (* The graph's fused in-place AND/ANDNOT/NOR kernels over one tile,
     words [0 .. top] of each row.  Every arena index is in range by
     construction (rows are [var < num_vars] and the arena spans them),
     so the inner loops use unsafe accesses: this is the hot path of the
     whole system and must not pay per-word bounds checks.
     [final_word] is the in-tile index of the globally-last word of a row
     (-1 when this tile is not the last): only there can bits beyond the
     pattern count appear, and only the NOR case can set them. *)
  let sim_tile arena code hi ~tw ~top ~final_word ~tmask =
    let i = ref 0 in
    while !i < hi do
      let var = Array.unsafe_get code !i in
      let f0 = Array.unsafe_get code (!i + 1) in
      let f1 = Array.unsafe_get code (!i + 2) in
      let dst = var * tw in
      let a = (f0 lsr 1) * tw and b = (f1 lsr 1) * tw in
      (match (f0 land 1 = 1, f1 land 1 = 1) with
      | false, false ->
          for k = 0 to top do
            Array.unsafe_set arena (dst + k)
              (Array.unsafe_get arena (a + k)
              land Array.unsafe_get arena (b + k))
          done
      | false, true ->
          for k = 0 to top do
            Array.unsafe_set arena (dst + k)
              (Array.unsafe_get arena (a + k)
              land lnot (Array.unsafe_get arena (b + k)))
          done
      | true, false ->
          for k = 0 to top do
            Array.unsafe_set arena (dst + k)
              (Array.unsafe_get arena (b + k)
              land lnot (Array.unsafe_get arena (a + k)))
          done
      | true, true ->
          for k = 0 to top do
            Array.unsafe_set arena (dst + k)
              (lnot
                 (Array.unsafe_get arena (a + k)
                 lor Array.unsafe_get arena (b + k))
              land word_mask)
          done;
          if final_word >= 0 then
            Array.unsafe_set arena (dst + final_word)
              (Array.unsafe_get arena (dst + final_word) land tmask));
      i := !i + 3
    done

  (* Fused xor-popcount of the graph's output row against [expected],
     over one tile: a complemented output is negated and masked word by
     word. *)
  let count_tile arena ~out ~expected ~tw ~tile_off ~top ~final_word ~tmask =
    let base = (out lsr 1) * tw in
    let comp = out land 1 = 1 in
    let d = ref 0 in
    for k = 0 to top do
      let ow = Array.unsafe_get arena (base + k) in
      let ow =
        if comp then
          lnot ow land (if k = final_word then tmask else word_mask)
        else ow
      in
      d :=
        !d
        + Words.popcount_word
            (ow lxor Words.unsafe_word expected (tile_off + k))
    done;
    !d

  (* The one tile loop under every entry point: compile [g], then per
     tile load the input words, run [g]'s kernels and hand the hot arena
     to [visit], which returns [false] to stop early (an early exit).
     Returns whether every tile was visited. *)
  let run_tiles ~tile_words e g columns ~n visit =
    if tile_words < 1 then invalid_arg "Sim.Engine: tile_words must be >= 1";
    let tw = tile_words in
    let wpc = Words.num_words n in
    let n_tiles = (wpc + tw - 1) / tw in
    let _, completed =
      Telemetry.span_ret ~cat:"engine" "engine.batch"
        ~args:(fun (tiles, completed) ->
          [
            ("candidates", Telemetry.Int 1);
            ("tiles", Telemetry.Int tiles);
            ("early_exited", Telemetry.Int (if completed then 0 else 1));
          ])
      @@ fun () ->
      e.arena <- grow_exact e.arena (Graph.num_vars g * tw);
      let hi = compile e g in
      let arena = e.arena and code = e.code in
      Array.fill arena 0 tw 0 (* constant-false row, shared by all tiles *);
      let tmask = top_mask n in
      let t = ref 0 and go = ref true in
      while !go && !t < n_tiles do
        let tile_off = !t * tw in
        let top = min tw (wpc - tile_off) - 1 in
        let final_word = if !t = n_tiles - 1 then top else -1 in
        load_tile arena columns ~tw ~tile_off ~top;
        sim_tile arena code hi ~tw ~top ~final_word ~tmask;
        incr t;
        go := visit arena ~tile_off ~top ~final_word ~tmask
      done;
      Telemetry.add c_words_simulated (Graph.num_ands g * min wpc (!t * tw));
      (!t, !go)
    in
    Telemetry.incr c_batch_candidates;
    if not completed then Telemetry.incr c_batch_early_exits;
    completed

  (* [Some d] is always the exact disagreement count; [None] means the
     running count exceeded [limit] after some tile, so the exact count
     is provably greater than [limit] too. *)
  let disagreements ?(limit = max_int) ?(tile_words = default_tile_words) e g
      columns ~expected =
    (* With no inputs the pattern count comes from [expected]. *)
    let n = check_columns g columns in
    let n = if Array.length columns = 0 then Words.length expected else n in
    if Words.length expected <> n then
      invalid_arg "Sim.Engine: expected length mismatch";
    let out = Graph.output g in
    let d = ref 0 in
    let completed =
      run_tiles ~tile_words e g columns ~n
        (fun arena ~tile_off ~top ~final_word ~tmask ->
          d :=
            !d
            + count_tile arena ~out ~expected ~tw:tile_words ~tile_off ~top
                ~final_word ~tmask;
          !d <= limit)
    in
    if completed then Some !d else None

  let accuracy ?tile_words e g columns ~expected =
    match disagreements ?tile_words e g columns ~expected with
    | Some d ->
        let n = Words.length expected in
        if n = 0 then 1.0 else 1.0 -. (float_of_int d /. float_of_int n)
    | None -> assert false (* no limit: the count is exact *)

  (* Each row is extracted into its result vector while the tile is still
     hot, so the full-width output is written exactly once. *)
  let signatures ?(tile_words = default_tile_words) e g columns =
    let n = check_columns g columns in
    let nv = Graph.num_vars g in
    let sigs = Array.init nv (fun _ -> Words.create n) in
    ignore
      (run_tiles ~tile_words e g columns ~n
         (fun arena ~tile_off ~top ~final_word:_ ~tmask:_ ->
           for v = 0 to nv - 1 do
             let base = v * tile_words in
             let sg = Array.unsafe_get sigs v in
             for k = 0 to top do
               Words.set_word sg (tile_off + k)
                 (Array.unsafe_get arena (base + k))
             done
           done;
           true));
    sigs

  (* One engine per domain: arenas are reused across every evaluation the
     domain performs but never shared, which keeps jobs=1 and jobs=N runs
     on identical state. *)
  let dls_key = Domain.DLS.new_key create
  let for_domain () = Domain.DLS.get dls_key
end
