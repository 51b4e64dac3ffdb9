let bits_per_word = 62
let word_mask = (1 lsl bits_per_word) - 1

type t = { length : int; words : int array }

let num_words n =
  if n < 0 then invalid_arg "Words.num_words: negative length";
  (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Words.create: negative length";
  { length = n; words = Array.make (num_words n) 0 }

let length t = t.length
let copy t = { t with words = Array.copy t.words }

let check_index t i =
  if i < 0 || i >= t.length then invalid_arg "Words: index out of range"

let get t i =
  check_index t i;
  t.words.(i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set t i b =
  check_index t i;
  let w = i / bits_per_word and r = i mod bits_per_word in
  if b then t.words.(w) <- t.words.(w) lor (1 lsl r)
  else t.words.(w) <- t.words.(w) land lnot (1 lsl r)

(* Mask of valid bits in the (possibly partial) top word. *)
let top_mask t =
  let r = t.length mod bits_per_word in
  if r = 0 then word_mask else (1 lsl r) - 1

let normalize t =
  let n = Array.length t.words in
  if n > 0 then t.words.(n - 1) <- t.words.(n - 1) land top_mask t

let fill t b =
  Array.fill t.words 0 (Array.length t.words) (if b then word_mask else 0);
  if b then normalize t

(* Kernighan loop: cost proportional to the number of set bits, which is the
   common case for subset masks during tree training. *)
let popcount_word w =
  let w = ref w and c = ref 0 in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let word t i = t.words.(i)

(* Hot-path accessors for flat word arenas: the tiled batch kernel streams
   backing words in and out of its arena without per-word bounds checks.
   [unsafe_word] trusts the caller's index; [set_word] keeps the top-word
   invariant (bits beyond [length] stay clear) so a set written word by
   word still satisfies [equal]/[hash]/[popcount]. *)
let unsafe_word t i = Array.unsafe_get t.words i

let set_word t i w =
  let n = Array.length t.words in
  if i < 0 || i >= n then invalid_arg "Words.set_word: index out of range";
  t.words.(i) <- (if i = n - 1 then w land top_mask t else w land word_mask)
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let check_same a b =
  if a.length <> b.length then invalid_arg "Words: length mismatch"

let equal a b =
  check_same a b;
  Array.for_all2 ( = ) a.words b.words

let compare a b =
  let c = Stdlib.compare a.length b.length in
  if c <> 0 then c
  else begin
    let n = Array.length a.words in
    let rec go i =
      if i = n then 0
      else
        let c = Stdlib.compare a.words.(i) b.words.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let hash t =
  (* FNV-1a over the packed words; cheap and stable across runs. *)
  let h = ref 0x811c9dc5 in
  let mix x =
    h := (!h lxor x) * 0x01000193 land max_int
  in
  mix t.length;
  Array.iter (fun w -> mix (w land 0x3fffffff); mix (w lsr 30)) t.words;
  !h

let binop_into f ~dst a b =
  check_same a b;
  check_same dst a;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- f a.words.(i) b.words.(i)
  done

let and_into ~dst a b = binop_into ( land ) ~dst a b
let or_into ~dst a b = binop_into ( lor ) ~dst a b
let xor_into ~dst a b = binop_into ( lxor ) ~dst a b
let andnot_into ~dst a b = binop_into (fun x y -> x land lnot y) ~dst a b

let not_into ~dst a =
  check_same dst a;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- lnot a.words.(i) land word_mask
  done;
  normalize dst

let via_into op a b =
  let dst = create a.length in
  op ~dst a b;
  dst

let logand a b = via_into and_into a b
let logor a b = via_into or_into a b
let logxor a b = via_into xor_into a b
let andnot a b = via_into andnot_into a b

let lognot a =
  let dst = create a.length in
  not_into ~dst a;
  dst

let count_and a b =
  check_same a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) land b.words.(i))
  done;
  !acc

let count_andnot a b =
  check_same a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) land lnot b.words.(i))
  done;
  !acc

let iter_set t f =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    while !w <> 0 do
      let low = !w land - !w in
      let rec bit_index v acc = if v = 1 then acc else bit_index (v lsr 1) (acc + 1) in
      f ((wi * bits_per_word) + bit_index low 0);
      w := !w land (!w - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  iter_set t (fun i -> acc := i :: !acc);
  List.rev !acc

let random st n =
  let t = create n in
  for i = 0 to Array.length t.words - 1 do
    t.words.(i) <-
      Random.State.bits st
      lor (Random.State.bits st lsl 30)
      lor (Random.State.int st 4 lsl 60)
  done;
  normalize t;
  t

let init n f =
  let t = create n in
  for i = 0 to n - 1 do
    if f i then set t i true
  done;
  t
