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
  let c_batch_runs = Telemetry.counter "engine.batch_runs"
  let c_batch_candidates = Telemetry.counter "engine.batch_candidates"
  let c_batch_tiles = Telemetry.counter "engine.batch_tiles"
  let c_batch_early_exits = Telemetry.counter "engine.batch_early_exits"
  let h_batch_size = Telemetry.histogram "engine.batch_size"

  (* State reused across calls so the tiled kernel allocates nothing at
     steady state (see [disagreements_batch]). *)
  type t = {
    mutable arena : int array;  (* tile arena: row [v] at [v * tile_words] *)
    mutable code : int array;  (* concatenated (dst var, f0, f1) triples *)
    mutable starts : int array;  (* candidate [c]'s code at [starts.(c) ..) *)
    mutable counts : int array;  (* running disagreement count per candidate *)
    mutable alive : int array;  (* 1 = still in the race, 0 = pruned *)
  }

  let create () =
    { arena = [||]; code = [||]; starts = [||]; counts = [||]; alive = [||] }

  (* Tile width in words.  62 bits/word x 16 words = 992 patterns per
     tile: a 600-gate candidate touches ~620 rows x 16 words = 80 KB per
     tile, which sits in L2 with the shared input rows hot in L1, instead
     of streaming a multi-megabyte full-width arena per candidate.
     Chosen by the bench tile-size sweep (see EXPERIMENTS.md). *)
  let default_tile_words = 16

  (* Candidates per chunk.  Every candidate in a chunk is simulated over
     each tile while the tile is hot; between chunks the best exact count
     so far tightens the early-exit limit, so later chunks abandon losing
     candidates after their first tiles instead of simulating them to the
     end. *)
  let default_chunk = 4

  (* Mask of the valid bits in the top word of an [n]-pattern row. *)
  let top_mask n =
    let r = n mod Words.bits_per_word in
    if r = 0 then word_mask else (1 lsl r) - 1

  let grow_exact arr needed =
    if Array.length arr >= needed then arr
    else Array.make (max needed (2 * Array.length arr)) 0

  (* Flatten every candidate's AND nodes into (dst var, fanin0, fanin1)
     int triples: the per-tile inner loop then walks a flat code array
     instead of re-traversing the graph through a closure per tile. *)
  let compile_batch e graphs =
    let ncand = Array.length graphs in
    let total =
      Array.fold_left (fun acc g -> acc + Graph.num_ands g) 0 graphs
    in
    e.code <- grow_exact e.code (3 * total);
    e.starts <- grow_exact e.starts (ncand + 1);
    let code = e.code and starts = e.starts in
    let pos = ref 0 in
    Array.iteri
      (fun c g ->
        starts.(c) <- !pos;
        Graph.iter_ands g (fun var f0 f1 ->
            code.(!pos) <- var;
            code.(!pos + 1) <- f0;
            code.(!pos + 2) <- f1;
            pos := !pos + 3))
      graphs;
    starts.(ncand) <- !pos

  (* Copy the tile's words of every input column into rows 1..n_inputs.
     Row 0 (constant false) is zeroed once per call by the caller and
     never written by the kernels. *)
  let load_tile arena columns ~tw ~tile_off ~top =
    for i = 0 to Array.length columns - 1 do
      let base = (1 + i) * tw in
      let col = Array.unsafe_get columns i in
      for k = 0 to top do
        Array.unsafe_set arena (base + k)
          (Words.unsafe_word col (tile_off + k))
      done
    done

  (* One candidate's fused in-place AND/ANDNOT/NOR kernels over one tile,
     words [0 .. top] of each row.  Every arena index is in range by
     construction (rows are [var < num_vars] and the arena spans them),
     so the inner loops use unsafe accesses: this is the hot path of the
     whole system and must not pay per-word bounds checks.
     [final_word] is the in-tile index of the globally-last word of a row
     (-1 when this tile is not the last): only there can bits beyond the
     pattern count appear, and only the NOR case can set them. *)
  let sim_tile arena code lo hi ~tw ~top ~final_word ~tmask =
    let i = ref lo in
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

  (* Fused xor-popcount of a candidate's output row against the expected
     row, over one tile: a complemented output is negated and masked word
     by word. *)
  let count_tile arena ~out ~erow ~tw ~top ~final_word ~tmask =
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
      d := !d + Words.popcount_word (ow lxor Array.unsafe_get arena (erow + k))
    done;
    !d

  let check_batch_columns graphs columns ~expected =
    let n_inputs = Array.length columns in
    Array.iter
      (fun g ->
        if Graph.num_inputs g <> n_inputs then
          invalid_arg "Sim.Engine: batch input count mismatch")
      graphs;
    let n =
      if n_inputs = 0 then Words.length expected
      else begin
        let n = Words.length columns.(0) in
        Array.iter
          (fun c ->
            if Words.length c <> n then invalid_arg "Sim: ragged columns")
          columns;
        n
      end
    in
    if Words.length expected <> n then
      invalid_arg "Sim.Engine: batch expected length mismatch";
    n

  (* Score every candidate against the shared [columns]/[expected] in
     cache-blocked tiles.  [Some d] is always the exact disagreement
     count; [None] means the candidate's running count exceeded [limit]
     or a completed candidate's exact count, so it provably cannot have
     the (or tie the) minimum: the argmin over the [Some]s — and every
     candidate tied with it — always survives, so folding the [Some]s in
     order picks the true winner. *)
  let disagreements_batch ?(limit = max_int)
      ?(tile_words = default_tile_words) ?(chunk = default_chunk) e graphs
      columns ~expected =
    if tile_words < 1 then
      invalid_arg "Sim.Engine.disagreements_batch: tile_words must be >= 1";
    if chunk < 1 then
      invalid_arg "Sim.Engine.disagreements_batch: chunk must be >= 1";
    let ncand = Array.length graphs in
    if ncand = 0 then [||]
    else begin
      let n = check_batch_columns graphs columns ~expected in
      let words = ref 0 in
      let result, tiles, early =
        Telemetry.span_ret ~cat:"engine" "engine.batch"
          ~args:(fun (_, tiles, early) ->
            [
              ("candidates", Telemetry.Int ncand);
              ("tiles", Telemetry.Int tiles);
              ("early_exited", Telemetry.Int early);
            ])
        @@ fun () ->
        let wpc = Words.num_words n in
        let tw = tile_words in
        let n_tiles = (wpc + tw - 1) / tw in
        let max_vars =
          Array.fold_left (fun acc g -> max acc (Graph.num_vars g)) 1 graphs
        in
        (* The expected row lives one row past every candidate's variables. *)
        let erow = max_vars * tw in
        e.arena <- grow_exact e.arena ((max_vars + 1) * tw);
        compile_batch e graphs;
        e.counts <- grow_exact e.counts ncand;
        e.alive <- grow_exact e.alive ncand;
        let arena = e.arena and code = e.code and starts = e.starts in
        let counts = e.counts and alive = e.alive in
        Array.fill counts 0 ncand 0;
        Array.fill alive 0 ncand 1;
        Array.fill arena 0 tw 0 (* constant-false row, shared by all tiles *);
        let tmask = top_mask n in
        let limit_ref = ref limit in
        let tiles = ref 0 and early = ref 0 in
        let c0 = ref 0 in
        while !c0 < ncand do
          let c1 = min (!c0 + chunk) ncand in
          let live = ref (c1 - !c0) in
          let t = ref 0 in
          while !t < n_tiles && !live > 0 do
            let tile_off = !t * tw in
            let top = min tw (wpc - tile_off) - 1 in
            let final_word = if !t = n_tiles - 1 then top else -1 in
            load_tile arena columns ~tw ~tile_off ~top;
            for k = 0 to top do
              Array.unsafe_set arena (erow + k)
                (Words.unsafe_word expected (tile_off + k))
            done;
            incr tiles;
            for c = !c0 to c1 - 1 do
              if Array.unsafe_get alive c = 1 then begin
                let lo = starts.(c) and hi = starts.(c + 1) in
                sim_tile arena code lo hi ~tw ~top ~final_word ~tmask;
                words := !words + ((hi - lo) / 3 * (top + 1));
                let out = Graph.output (Array.unsafe_get graphs c) in
                let d = count_tile arena ~out ~erow ~tw ~top ~final_word ~tmask in
                let total = counts.(c) + d in
                counts.(c) <- total;
                if total > !limit_ref then begin
                  alive.(c) <- 0;
                  decr live;
                  incr early
                end
              end
            done;
            incr t
          done;
          (* Chunk complete: survivors hold exact counts (a completed
             candidate is never pruned after the fact — exact values are
             strictly more informative than [None]).  Tightening the
             limit to the best completed count lets later chunks abandon
             losers after their first tile; pruning still requires a
             strictly greater running count, so the global minimum and
             every candidate tied with it always come back exact. *)
          for c = !c0 to c1 - 1 do
            if alive.(c) = 1 && counts.(c) < !limit_ref then
              limit_ref := counts.(c)
          done;
          c0 := c1
        done;
        let res =
          Array.init ncand (fun c ->
              if alive.(c) = 1 then Some counts.(c) else None)
        in
        (res, !tiles, !early)
      in
      Telemetry.incr c_batch_runs;
      Telemetry.add c_batch_candidates ncand;
      Telemetry.observe h_batch_size ncand;
      Telemetry.add c_batch_tiles tiles;
      Telemetry.add c_batch_early_exits early;
      Telemetry.add c_words_simulated !words;
      result
    end

  (* Exact accuracies need every count, so run the whole batch as one
     chunk: the early-exit limit only ever tightens between chunks, and a
     single chunk with [limit = max_int] can prune nothing. *)
  let accuracy_batch ?tile_words e graphs columns ~expected =
    let ds =
      disagreements_batch ~limit:max_int ?tile_words
        ~chunk:(max 1 (Array.length graphs)) e graphs columns ~expected
    in
    let n = Words.length expected in
    Array.map
      (function
        | Some d ->
            if n = 0 then 1.0
            else 1.0 -. (float_of_int d /. float_of_int n)
        | None -> assert false (* limit = max_int: counts are exact *))
      ds

  (* Tiled single-graph simulation that materialises every variable's
     signature — the batch-of-one degenerate case, used by the SAT
     sweeper's base and per-round counterexample refreshes.  Each row is
     extracted into its result vector while the tile is still hot, so the
     full-width output is written exactly once. *)
  let signatures_batch ?(tile_words = default_tile_words) e g columns =
    if tile_words < 1 then
      invalid_arg "Sim.Engine.signatures_batch: tile_words must be >= 1";
    let n = check_columns g columns in
    let wpc = Words.num_words n in
    let tw = tile_words in
    let n_tiles = (wpc + tw - 1) / tw in
    let nv = Graph.num_vars g in
    e.arena <- grow_exact e.arena (nv * tw);
    compile_batch e [| g |];
    let arena = e.arena and code = e.code and starts = e.starts in
    Array.fill arena 0 tw 0;
    let tmask = top_mask n in
    let sigs = Array.init nv (fun _ -> Words.create n) in
    for t = 0 to n_tiles - 1 do
      let tile_off = t * tw in
      let top = min tw (wpc - tile_off) - 1 in
      let final_word = if t = n_tiles - 1 then top else -1 in
      load_tile arena columns ~tw ~tile_off ~top;
      sim_tile arena code starts.(0) starts.(1) ~tw ~top ~final_word ~tmask;
      for v = 0 to nv - 1 do
        let base = v * tw in
        let sg = Array.unsafe_get sigs v in
        for k = 0 to top do
          Words.set_word sg (tile_off + k) (Array.unsafe_get arena (base + k))
        done
      done
    done;
    Telemetry.incr c_batch_runs;
    Telemetry.add c_batch_candidates 1;
    Telemetry.add c_batch_tiles n_tiles;
    Telemetry.add c_words_simulated (Graph.num_ands g * wpc);
    sigs

  (* One engine per domain: arenas are reused across every evaluation the
     domain performs but never shared, which keeps jobs=1 and jobs=N runs
     on identical state. *)
  let dls_key = Domain.DLS.new_key create
  let for_domain () = Domain.DLS.get dls_key
end
