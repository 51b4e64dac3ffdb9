let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_get_set () =
  let t = Words.create 200 in
  check_bool "initially empty" true (Words.is_empty t);
  Words.set t 0 true;
  Words.set t 61 true;
  Words.set t 62 true;
  Words.set t 199 true;
  check_int "popcount" 4 (Words.popcount t);
  check_bool "bit 62 across word boundary" true (Words.get t 62);
  Words.set t 62 false;
  check_int "after clear" 3 (Words.popcount t)

let test_fill () =
  let t = Words.create 100 in
  Words.fill t true;
  check_int "all ones" 100 (Words.popcount t);
  Words.fill t false;
  check_bool "all zeros" true (Words.is_empty t)

let test_lognot_respects_length () =
  let t = Words.create 65 in
  Words.set t 3 true;
  let n = Words.lognot t in
  check_int "complement popcount" 64 (Words.popcount n);
  check_bool "bit 3 flipped" false (Words.get n 3)

let test_iter_set () =
  let t = Words.init 150 (fun i -> i mod 31 = 0) in
  Alcotest.(check (list int)) "indices" [ 0; 31; 62; 93; 124 ] (Words.to_list t)

let test_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Words: length mismatch")
    (fun () -> ignore (Words.logand (Words.create 10) (Words.create 11)))

(* Properties against a bool-array reference model. *)

let gen_pair =
  QCheck.make
    ~print:(fun (n, a, b) ->
      Printf.sprintf "n=%d a=%s b=%s" n
        (String.concat "" (List.map (fun x -> if x then "1" else "0") a))
        (String.concat "" (List.map (fun x -> if x then "1" else "0") b)))
    QCheck.Gen.(
      int_range 1 300 >>= fun n ->
      pair (list_repeat n bool) (list_repeat n bool) >>= fun (a, b) ->
      return (n, a, b))

let of_list n l = Words.init n (List.nth l)

let prop name = QCheck.Test.make ~count:200 ~name

let properties =
  [ prop "logand matches model" gen_pair (fun (n, a, b) ->
        let got = Words.to_list (Words.logand (of_list n a) (of_list n b)) in
        let want =
          List.filteri (fun i _ -> List.nth a i && List.nth b i) a
          |> List.length
        in
        List.length got = want);
    prop "count_and = popcount of logand" gen_pair (fun (n, a, b) ->
        let wa = of_list n a and wb = of_list n b in
        Words.count_and wa wb = Words.popcount (Words.logand wa wb));
    prop "count_andnot = popcount of andnot" gen_pair (fun (n, a, b) ->
        let wa = of_list n a and wb = of_list n b in
        Words.count_andnot wa wb = Words.popcount (Words.andnot wa wb));
    prop "xor twice is identity" gen_pair (fun (n, a, b) ->
        let wa = of_list n a and wb = of_list n b in
        Words.equal wa (Words.logxor (Words.logxor wa wb) wb));
    prop "de morgan" gen_pair (fun (n, a, b) ->
        let wa = of_list n a and wb = of_list n b in
        Words.equal
          (Words.lognot (Words.logand wa wb))
          (Words.logor (Words.lognot wa) (Words.lognot wb)));
    prop "iter_set visits exactly set bits" gen_pair (fun (n, a, _) ->
        let wa = of_list n a in
        let visited = Words.to_list wa in
        List.for_all (Words.get wa) visited
        && List.length visited = Words.popcount wa);
    prop "popcount_word sums to popcount" gen_pair (fun (n, a, _) ->
        let wa = of_list n a in
        let total = ref 0 in
        for i = 0 to Words.num_words n - 1 do
          total := !total + Words.popcount_word (Words.word wa i)
        done;
        !total = Words.popcount wa);
  ]

let suites =
  [ ( "words",
      [ Alcotest.test_case "get/set" `Quick test_get_set;
        Alcotest.test_case "fill" `Quick test_fill;
        Alcotest.test_case "lognot length" `Quick test_lognot_respects_length;
        Alcotest.test_case "iter_set" `Quick test_iter_set;
        Alcotest.test_case "length mismatch" `Quick test_length_mismatch ]
      @ List.map (QCheck_alcotest.to_alcotest ~long:false) properties ) ]
