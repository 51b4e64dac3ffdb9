type lit = int

(* The strash is an open-addressing table keyed by the two ordered fan-in
   literals packed into one native int ([a lsl 31 lor b]): no boxed tuple
   keys, no polymorphic hashing, no bucket cells — graph construction
   allocates nothing beyond the node arrays themselves.  Slot key 0 means
   empty (impossible as a packed pair: [a >= 2] after constant folding). *)
type t = {
  num_inputs : int;
  mutable fan0 : int array;  (* fan-in literals of AND vars, indexed by   *)
  mutable fan1 : int array;  (* var - first_and_var                        *)
  mutable n_ands : int;
  mutable strash_keys : int array;  (* packed (fan0, fan1); 0 = empty slot *)
  mutable strash_vals : int array;  (* AND var stored in the same slot *)
  mutable strash_used : int;
  mutable out : lit;
}

let const_false = 0
let const_true = 1

let lit_not l = l lxor 1
let lit_notif l c = if c then l lxor 1 else l
let var_of_lit l = l lsr 1
let is_complemented l = l land 1 = 1
let lit_of_var v c = (v lsl 1) lor (if c then 1 else 0)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ?(size_hint = 0) ~num_inputs () =
  if num_inputs < 0 then invalid_arg "Graph.create: negative input count";
  let fan_cap = max 16 size_hint in
  (* Capacity at least twice the expected entry count keeps the load factor
     at or below 1/2 without a resize. *)
  let table_cap = pow2_at_least (max 64 (2 * size_hint)) 64 in
  {
    num_inputs;
    fan0 = Array.make fan_cap 0;
    fan1 = Array.make fan_cap 0;
    n_ands = 0;
    strash_keys = Array.make table_cap 0;
    strash_vals = Array.make table_cap 0;
    strash_used = 0;
    out = const_false;
  }

let num_inputs g = g.num_inputs
let num_ands g = g.n_ands
let num_vars g = 1 + g.num_inputs + g.n_ands
let first_and_var g = 1 + g.num_inputs

let input g i =
  if i < 0 || i >= g.num_inputs then invalid_arg "Graph.input: index out of range";
  lit_of_var (1 + i) false

let is_and_var g v = v >= first_and_var g && v < num_vars g

let fanins g v =
  if not (is_and_var g v) then invalid_arg "Graph.fanins: not an AND variable";
  let i = v - first_and_var g in
  (g.fan0.(i), g.fan1.(i))

let grow g =
  if g.n_ands = Array.length g.fan0 then begin
    let n = 2 * Array.length g.fan0 in
    let f0 = Array.make n 0 and f1 = Array.make n 0 in
    Array.blit g.fan0 0 f0 0 g.n_ands;
    Array.blit g.fan1 0 f1 0 g.n_ands;
    g.fan0 <- f0;
    g.fan1 <- f1
  end

(* Fibonacci-style multiplicative hash with an avalanche shift: packed keys
   differ mostly in their low (second-literal) bits, which the product
   spreads across the whole word. *)
let strash_hash key =
  let h = key * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

(* -1 when absent.  Linear probing; the table never holds deletions. *)
let strash_find g key =
  let keys = g.strash_keys in
  let mask = Array.length keys - 1 in
  let rec probe i =
    let k = Array.unsafe_get keys i in
    if k = key then Array.unsafe_get g.strash_vals i
    else if k = 0 then -1
    else probe ((i + 1) land mask)
  in
  probe (strash_hash key land mask)

let strash_insert keys vals key v =
  let mask = Array.length keys - 1 in
  let rec probe i =
    if Array.unsafe_get keys i = 0 then begin
      Array.unsafe_set keys i key;
      Array.unsafe_set vals i v
    end
    else probe ((i + 1) land mask)
  in
  probe (strash_hash key land mask)

let strash_add g key v =
  if 2 * (g.strash_used + 1) > Array.length g.strash_keys then begin
    let cap = 2 * Array.length g.strash_keys in
    let keys = Array.make cap 0 and vals = Array.make cap 0 in
    Array.iteri
      (fun i k -> if k <> 0 then strash_insert keys vals k g.strash_vals.(i))
      g.strash_keys;
    g.strash_keys <- keys;
    g.strash_vals <- vals
  end;
  strash_insert g.strash_keys g.strash_vals key v;
  g.strash_used <- g.strash_used + 1

let and_ g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = const_false then const_false
  else if a = const_true then b
  else if a = b then a
  else if a = lit_not b then const_false
  else begin
    if b lsr 31 <> 0 then
      invalid_arg "Graph.and_: graph too large for packed strash keys";
    let key = (a lsl 31) lor b in
    match strash_find g key with
    | v when v >= 0 -> lit_of_var v false
    | _ ->
        grow g;
        let v = first_and_var g + g.n_ands in
        g.fan0.(g.n_ands) <- a;
        g.fan1.(g.n_ands) <- b;
        g.n_ands <- g.n_ands + 1;
        strash_add g key v;
        lit_of_var v false
  end

let or_ g a b = lit_not (and_ g (lit_not a) (lit_not b))

let xor_ g a b =
  (* a XOR b = NOT (NOT(a AND NOT b) AND NOT(NOT a AND b)) *)
  let p = and_ g a (lit_not b) and q = and_ g (lit_not a) b in
  or_ g p q

let xnor_ g a b = lit_not (xor_ g a b)

let mux g ~sel ~t1 ~t0 =
  let p = and_ g sel t1 and q = and_ g (lit_not sel) t0 in
  or_ g p q

(* Balanced reduction keeps the level count logarithmic. *)
let rec reduce_balanced g op neutral = function
  | [] -> neutral
  | [ x ] -> x
  | xs ->
      let rec pair = function
        | a :: b :: rest -> op g a b :: pair rest
        | tail -> tail
      in
      reduce_balanced g op neutral (pair xs)

let and_list g ls = reduce_balanced g and_ const_true ls
let or_list g ls = reduce_balanced g or_ const_false ls

let set_output g l =
  if var_of_lit l >= num_vars g then invalid_arg "Graph.set_output: unknown literal";
  g.out <- l

let output g = g.out

let import g ~src =
  if num_inputs src <> num_inputs g then
    invalid_arg "Graph.import: input count mismatch";
  (* Map only the src variables reachable from src's output: anything else
     would allocate dead nodes in [g] just to have them swept later. *)
  let first = first_and_var src in
  let reach = Array.make (num_vars src) false in
  reach.(0) <- true;
  let rec visit v =
    if not reach.(v) then begin
      reach.(v) <- true;
      if is_and_var src v then begin
        visit (var_of_lit src.fan0.(v - first));
        visit (var_of_lit src.fan1.(v - first))
      end
    end
  in
  visit (var_of_lit (output src));
  let map = Array.make (num_vars src) (-1) in
  map.(0) <- const_false;
  for i = 0 to num_inputs src - 1 do
    map.(1 + i) <- input g i
  done;
  let lit_in_g l =
    let m = map.(var_of_lit l) in
    assert (m >= 0);
    lit_notif m (is_complemented l)
  in
  (* AND vars are stored in topological order, so one forward pass maps the
     reachable cone. *)
  for i = 0 to num_ands src - 1 do
    if reach.(first + i) then begin
      let a = src.fan0.(i) and b = src.fan1.(i) in
      map.(first + i) <- and_ g (lit_in_g a) (lit_in_g b)
    end
  done;
  lit_in_g (output src)

let eval g inputs =
  if Array.length inputs <> g.num_inputs then
    invalid_arg "Graph.eval: wrong input arity";
  let value = Array.make (num_vars g) false in
  Array.blit inputs 0 value 1 g.num_inputs;
  let first = first_and_var g in
  let lit_value l = value.(var_of_lit l) <> is_complemented l in
  for i = 0 to g.n_ands - 1 do
    value.(first + i) <- lit_value g.fan0.(i) && lit_value g.fan1.(i)
  done;
  lit_value g.out

let levels g =
  let level = Array.make (num_vars g) 0 in
  let first = first_and_var g in
  for i = 0 to g.n_ands - 1 do
    let l0 = level.(var_of_lit g.fan0.(i)) and l1 = level.(var_of_lit g.fan1.(i)) in
    level.(first + i) <- 1 + max l0 l1
  done;
  level.(var_of_lit g.out)

let fold_ands g ~init ~f =
  let first = first_and_var g in
  let acc = ref init in
  for i = 0 to g.n_ands - 1 do
    acc := f !acc (first + i) g.fan0.(i) g.fan1.(i)
  done;
  !acc

let iter_ands ?(from = 0) g f =
  if from < 0 || from > g.n_ands then invalid_arg "Graph.iter_ands: bad start";
  let first = first_and_var g in
  for i = from to g.n_ands - 1 do
    f (first + i) g.fan0.(i) g.fan1.(i)
  done

let pp_stats fmt g =
  Format.fprintf fmt "aig: i/o = %d/1  and = %d  lev = %d" g.num_inputs
    g.n_ands (levels g)
