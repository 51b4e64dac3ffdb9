let fault_solve = Resil.Fault.declare "sat.solve"

type lit = int

let lit_of_var v negated = (v lsl 1) lor (if negated then 1 else 0)
let lit_not l = l lxor 1
let var_of_lit l = l lsr 1
let is_negated l = l land 1 = 1

type clause = {
  mutable lits : int array;  (* watched literals at positions 0 and 1 *)
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

let dummy_clause = { lits = [||]; activity = 0.; learnt = false; deleted = true }

(* Growable vector of clauses (watch lists, learned-clause database). *)
type cvec = { mutable data : clause array; mutable len : int }

let cvec_create () = { data = [||]; len = 0 }

let cvec_push v c =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 4 (2 * Array.length v.data)) dummy_clause in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- c;
  v.len <- v.len + 1

(* Assignment values. *)
let v_false = 0
let v_true = 1
let v_unassigned = 2

type result = Sat | Unsat | Unknown

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
}

type t = {
  mutable nvars : int;
  (* Per-variable state, arrays of capacity >= nvars. *)
  mutable assign : int array;
  mutable level : int array;
  mutable reason : clause array;  (* dummy_clause means "no reason" *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  (* VSIDS order: binary max-heap of variables keyed by activity. *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_pos : int array;  (* var -> heap index, -1 when absent *)
  (* Per-literal watch lists (capacity 2 * variable capacity). *)
  mutable watches : cvec array;
  mutable trail : int array;
  mutable trail_len : int;
  mutable trail_lim : int array;
  mutable trail_lim_len : int;
  mutable qhead : int;
  mutable learnts : cvec;
  mutable n_clauses : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable max_learnts : float;
  mutable ok : bool;
  mutable model_ : bool array;
  mutable n_decisions : int;
  mutable n_conflicts : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
}

let create () =
  {
    nvars = 0;
    assign = [||];
    level = [||];
    reason = [||];
    activity = [||];
    phase = [||];
    seen = [||];
    heap = [||];
    heap_len = 0;
    heap_pos = [||];
    watches = [||];
    trail = [||];
    trail_len = 0;
    trail_lim = [||];
    trail_lim_len = 0;
    qhead = 0;
    learnts = cvec_create ();
    n_clauses = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    max_learnts = 0.0;
    ok = true;
    model_ = [||];
    n_decisions = 0;
    n_conflicts = 0;
    n_propagations = 0;
    n_restarts = 0;
  }

let num_vars s = s.nvars
let num_clauses s = s.n_clauses
let ok s = s.ok

(* ---- heap ---- *)

let heap_before s a b = s.activity.(a) > s.activity.(b)

let rec percolate_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = s.heap.(i) and p = s.heap.(parent) in
    if heap_before s v p then begin
      s.heap.(i) <- p;
      s.heap.(parent) <- v;
      s.heap_pos.(p) <- i;
      s.heap_pos.(v) <- parent;
      percolate_up s parent
    end
  end

let rec percolate_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && heap_before s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_len && heap_before s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let a = s.heap.(i) and b = s.heap.(!best) in
    s.heap.(i) <- b;
    s.heap.(!best) <- a;
    s.heap_pos.(b) <- i;
    s.heap_pos.(a) <- !best;
    percolate_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    percolate_up s s.heap_pos.(v)
  end

let heap_pop s =
  let top = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  let last = s.heap.(s.heap_len) in
  s.heap.(0) <- last;
  s.heap_pos.(last) <- 0;
  s.heap_pos.(top) <- -1;
  if s.heap_len > 0 then percolate_down s 0;
  top

(* ---- variables ---- *)

let new_var s =
  let v = s.nvars in
  let cap = Array.length s.assign in
  if v = cap then begin
    let ncap = max 16 (2 * cap) in
    let grow a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    s.assign <- grow s.assign v_unassigned;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason dummy_clause;
    s.activity <- grow s.activity 0.0;
    s.phase <- grow s.phase false;
    s.seen <- grow s.seen false;
    s.heap <- grow s.heap 0;
    s.heap_pos <- grow s.heap_pos (-1);
    s.trail <- grow s.trail 0;
    s.trail_lim <- grow s.trail_lim 0;
    let w = Array.make (2 * ncap) (cvec_create ()) in
    Array.blit s.watches 0 w 0 (2 * cap);
    for i = 2 * cap to (2 * ncap) - 1 do
      w.(i) <- cvec_create ()
    done;
    s.watches <- w
  end;
  s.assign.(v) <- v_unassigned;
  s.heap_pos.(v) <- -1;
  s.nvars <- v + 1;
  heap_insert s v;
  v

let lit_value s l =
  let a = s.assign.(l lsr 1) in
  if a = v_unassigned then v_unassigned else a lxor (l land 1)

let decision_level s = s.trail_lim_len

let enqueue s l reason =
  let v = l lsr 1 in
  s.assign.(v) <- 1 lxor (l land 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let new_decision_level s =
  s.trail_lim.(s.trail_lim_len) <- s.trail_len;
  s.trail_lim_len <- s.trail_lim_len + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_len - 1 downto bound do
      let v = s.trail.(i) lsr 1 in
      s.phase.(v) <- s.assign.(v) = v_true;
      s.assign.(v) <- v_unassigned;
      s.reason.(v) <- dummy_clause;
      heap_insert s v
    done;
    s.trail_len <- bound;
    s.qhead <- bound;
    s.trail_lim_len <- lvl
  end

(* ---- activities ---- *)

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 0 to s.nvars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then percolate_up s s.heap_pos.(v)

let decay_var s = s.var_inc <- s.var_inc /. 0.95

let bump_clause s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    for i = 0 to s.learnts.len - 1 do
      let d = s.learnts.data.(i) in
      d.activity <- d.activity *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause s = s.cla_inc <- s.cla_inc /. 0.999

(* ---- clauses ---- *)

let attach s c =
  cvec_push s.watches.(c.lits.(0)) c;
  cvec_push s.watches.(c.lits.(1)) c

(* Two-watched-literal propagation.  The watch list of a literal holds the
   clauses in which it is watched; when the literal becomes false each such
   clause finds a replacement watch, propagates its other watch, or yields
   a conflict. *)
let propagate s =
  let confl = ref dummy_clause in
  while !confl == dummy_clause && s.qhead < s.trail_len do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = p lxor 1 in
    let ws = s.watches.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < ws.len do
      let c = ws.data.(!i) in
      incr i;
      if not c.deleted then begin
        let lits = c.lits in
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        let first = lits.(0) in
        if lit_value s first = v_true then begin
          ws.data.(!j) <- c;
          incr j
        end
        else begin
          let n = Array.length lits in
          let k = ref 2 in
          while !k < n && lit_value s lits.(!k) = v_false do incr k done;
          if !k < n then begin
            (* Found a non-false replacement watch. *)
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            cvec_push s.watches.(lits.(1)) c
          end
          else begin
            ws.data.(!j) <- c;
            incr j;
            if lit_value s first = v_false then begin
              confl := c;
              while !i < ws.len do
                ws.data.(!j) <- ws.data.(!i);
                incr j;
                incr i
              done
            end
            else enqueue s first c
          end
        end
      end
    done;
    ws.len <- !j
  done;
  !confl

(* First-UIP conflict analysis.  Returns the learned clause (asserting
   literal first, a deepest remaining literal second) and the backjump
   level. *)
let analyze s confl =
  let dl = decision_level s in
  let tail = ref [] in
  let to_clear = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (s.trail_len - 1) in
  let uip = ref 0 in
  let looping = ref true in
  while !looping do
    let c = !confl in
    if c.learnt then bump_clause s c;
    (* Skip position 0 when resolving on a reason clause: that slot holds
       the literal being resolved away. *)
    for k = (if !p = -1 then 0 else 1) to Array.length c.lits - 1 do
      let q = c.lits.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        to_clear := v :: !to_clear;
        bump_var s v;
        if s.level.(v) >= dl then incr counter else tail := q :: !tail
      end
    done;
    while not s.seen.(s.trail.(!index) lsr 1) do decr index done;
    let q = s.trail.(!index) in
    decr index;
    p := q;
    confl := s.reason.(q lsr 1);
    decr counter;
    if !counter = 0 then begin
      looping := false;
      uip := lit_not q
    end
  done;
  (* Local minimization: a tail literal implied by other marked literals
     (all its reason's literals seen or root-assigned) is redundant. *)
  let redundant q =
    let v = q lsr 1 in
    let r = s.reason.(v) in
    r != dummy_clause
    && Array.for_all
         (fun x ->
           let xv = x lsr 1 in
           xv = v || s.seen.(xv) || s.level.(xv) = 0)
         r.lits
  in
  let tail = List.filter (fun q -> not (redundant q)) !tail in
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  let arr = Array.of_list (!uip :: tail) in
  let btlevel =
    if Array.length arr <= 1 then 0
    else begin
      let maxi = ref 1 in
      for k = 2 to Array.length arr - 1 do
        if s.level.(arr.(k) lsr 1) > s.level.(arr.(!maxi) lsr 1) then maxi := k
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!maxi);
      arr.(!maxi) <- tmp;
      s.level.(arr.(1) lsr 1)
    end
  in
  (arr, btlevel)

let learn s arr btlevel =
  cancel_until s btlevel;
  if Array.length arr = 1 then enqueue s arr.(0) dummy_clause
  else begin
    let c = { lits = arr; activity = 0.; learnt = true; deleted = false } in
    attach s c;
    cvec_push s.learnts c;
    bump_clause s c;
    enqueue s arr.(0) c
  end

let locked s c =
  Array.length c.lits > 0
  && lit_value s c.lits.(0) = v_true
  && s.reason.(c.lits.(0) lsr 1) == c

(* Drop the less active half of the learned clauses (binary and reason
   clauses are kept).  Deleted clauses are skipped lazily by propagation. *)
let reduce_db s =
  let arr = Array.sub s.learnts.data 0 s.learnts.len in
  Array.sort (fun (a : clause) (b : clause) -> compare a.activity b.activity) arr;
  let limit = Array.length arr / 2 in
  Array.iteri
    (fun idx c ->
      if idx < limit && Array.length c.lits > 2 && not (locked s c) then
        c.deleted <- true)
    arr;
  let j = ref 0 in
  for i = 0 to s.learnts.len - 1 do
    let c = s.learnts.data.(i) in
    if not c.deleted then begin
      s.learnts.data.(!j) <- c;
      incr j
    end
  done;
  s.learnts.len <- !j

let add_clause s lits =
  if s.ok then begin
    if decision_level s <> 0 then
      invalid_arg "Solver.add_clause: only between solve calls";
    List.iter
      (fun l ->
        if l < 0 || l lsr 1 >= s.nvars then
          invalid_arg "Solver.add_clause: unknown variable")
      lits;
    let lits = List.sort_uniq compare lits in
    let rec tautology = function
      | a :: b :: _ when b = a lxor 1 -> true
      | _ :: rest -> tautology rest
      | [] -> false
    in
    if not (tautology lits) then begin
      (* Root-level simplification: drop false literals, drop the clause
         when some literal is already true. *)
      let satisfied = List.exists (fun l -> lit_value s l = v_true) lits in
      if not satisfied then begin
        let lits = List.filter (fun l -> lit_value s l <> v_false) lits in
        match lits with
        | [] -> s.ok <- false
        | [ l ] ->
            s.n_clauses <- s.n_clauses + 1;
            enqueue s l dummy_clause;
            if propagate s != dummy_clause then s.ok <- false
        | _ :: _ :: _ ->
            s.n_clauses <- s.n_clauses + 1;
            let c =
              {
                lits = Array.of_list lits;
                activity = 0.;
                learnt = false;
                deleted = false;
              }
            in
            attach s c
      end
    end
  end

(* ---- search ---- *)

let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let rec pick_branch_var s =
  if s.heap_len = 0 then -1
  else
    let v = heap_pop s in
    if s.assign.(v) = v_unassigned then v else pick_branch_var s

(* One restart's worth of search.  [None] means "restart me". *)
let search s assumptions ~restart_limit ~conflict_budget =
  let conflicts_here = ref 0 in
  let ret = ref None in
  let running = ref true in
  while !running do
    let confl = propagate s in
    if confl != dummy_clause then begin
      Resil.Budget.check ();
      s.n_conflicts <- s.n_conflicts + 1;
      incr conflicts_here;
      if decision_level s = 0 then begin
        s.ok <- false;
        ret := Some Unsat;
        running := false
      end
      else begin
        let arr, bt = analyze s confl in
        learn s arr bt;
        decay_var s;
        decay_clause s;
        if float_of_int s.learnts.len >= s.max_learnts then reduce_db s
      end
    end
    else if s.n_conflicts >= conflict_budget then begin
      cancel_until s 0;
      ret := Some Unknown;
      running := false
    end
    else if !conflicts_here >= restart_limit then begin
      cancel_until s 0;
      running := false (* restart *)
    end
    else if decision_level s < Array.length assumptions then begin
      let p = assumptions.(decision_level s) in
      let v = lit_value s p in
      if v = v_true then new_decision_level s (* dummy level, move on *)
      else if v = v_false then begin
        (* The assumptions contradict the clause set (or each other). *)
        cancel_until s 0;
        ret := Some Unsat;
        running := false
      end
      else begin
        new_decision_level s;
        enqueue s p dummy_clause
      end
    end
    else begin
      let v = pick_branch_var s in
      if v < 0 then begin
        s.model_ <- Array.init s.nvars (fun i -> s.assign.(i) = v_true);
        cancel_until s 0;
        ret := Some Sat;
        running := false
      end
      else begin
        s.n_decisions <- s.n_decisions + 1;
        new_decision_level s;
        enqueue s (lit_of_var v (not s.phase.(v))) dummy_clause
      end
    end
  done;
  !ret

let solve_core ?(assumptions = []) ?(conflict_limit = max_int) s =
  Resil.Fault.point fault_solve;
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    List.iter
      (fun l ->
        if l < 0 || l lsr 1 >= s.nvars then
          invalid_arg "Solver.solve: unknown assumption variable")
      assumptions;
    (* Duplicate assumption literals would waste dummy decision levels
       (and could overflow the per-variable level stack); contradictory
       pairs are still caught when the second literal is found false. *)
    let assumptions = Array.of_list (List.sort_uniq compare assumptions) in
    let conflict_budget =
      if conflict_limit >= max_int - s.n_conflicts then max_int
      else s.n_conflicts + conflict_limit
    in
    if s.max_learnts < 100.0 then
      s.max_learnts <- Stdlib.max 1000.0 (float_of_int s.n_clauses /. 3.0);
    let result = ref None in
    let restart = ref 0 in
    while !result = None do
      let restart_limit = 100 * luby !restart in
      incr restart;
      result := search s assumptions ~restart_limit ~conflict_budget;
      if !result = None then begin
        s.n_restarts <- s.n_restarts + 1;
        s.max_learnts <- s.max_learnts *. 1.05
      end
    done;
    match !result with Some r -> r | None -> assert false
  end

let value s v =
  if v < 0 || v >= Array.length s.model_ then
    invalid_arg "Solver.value: no model value for variable";
  s.model_.(v)

let model s = Array.copy s.model_

let stats s =
  {
    decisions = s.n_decisions;
    conflicts = s.n_conflicts;
    propagations = s.n_propagations;
    restarts = s.n_restarts;
    learned = s.learnts.len;
  }

let c_decisions = Telemetry.counter "sat.decisions"
let c_conflicts = Telemetry.counter "sat.conflicts"
let c_propagations = Telemetry.counter "sat.propagations"
let c_restarts = Telemetry.counter "sat.restarts"
let c_solve_calls = Telemetry.counter "sat.solve_calls"
let h_conflicts = Telemetry.histogram "sat.conflicts_per_call"

let result_name = function
  | Sat -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"

(* Stats flow into telemetry as per-call deltas so hot CDCL loops never
   touch telemetry cells; a span wraps each call with its outcome. *)
let solve ?assumptions ?conflict_limit s =
  if not (Telemetry.enabled ()) then solve_core ?assumptions ?conflict_limit s
  else begin
    let before = stats s in
    let r =
      Telemetry.span_ret ~cat:"sat" "sat.solve"
        ~args:(fun r -> [ ("result", Telemetry.Str (result_name r)) ])
        (fun () -> solve_core ?assumptions ?conflict_limit s)
    in
    let after = stats s in
    Telemetry.incr c_solve_calls;
    Telemetry.add c_decisions (after.decisions - before.decisions);
    Telemetry.add c_conflicts (after.conflicts - before.conflicts);
    Telemetry.add c_propagations (after.propagations - before.propagations);
    Telemetry.add c_restarts (after.restarts - before.restarts);
    Telemetry.observe h_conflicts (after.conflicts - before.conflicts);
    r
  end
