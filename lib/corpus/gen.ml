module S = Benchgen.Suite
module F = Benchgen.Families

type config = {
  count : int;
  seed : int;
  sizes : S.sizes;
  families : F.family list;
  noise_sweep : int list;
}

let default_config =
  {
    count = 1000;
    seed = 1;
    sizes = { S.train = 96; valid = 48; test = 48 };
    families = F.all_families;
    noise_sweep = [ 0 ];
  }

let meta_of c =
  Printf.sprintf "corpus v1 seed=%d count=%d sizes=%d/%d/%d families=%s noise=%s"
    c.seed c.count c.sizes.S.train c.sizes.S.valid c.sizes.S.test
    (String.concat "," (List.map F.family_name c.families))
    (String.concat "," (List.map string_of_int c.noise_sweep))

let specs c =
  F.generate ~families:c.families ~noise_sweep:c.noise_sweep ~seed:c.seed
    ~count:c.count ()

let entry_of ~(sizes : S.sizes) ~id spec =
  let b = F.benchmark_of ~id spec in
  {
    Format.name = b.S.name;
    category = S.category_name b.S.category;
    description = b.S.description;
    num_inputs = b.S.num_inputs;
    train_samples = sizes.S.train;
    valid_samples = sizes.S.valid;
    test_samples = sizes.S.test;
  }

let generate_file ~path c =
  let specs = Array.of_list (specs c) in
  let entries =
    Array.to_list
      (Array.mapi (fun id spec -> entry_of ~sizes:c.sizes ~id spec) specs)
  in
  Format.write ~path ~meta:(meta_of c) ~entries ~data:(fun i ->
      let inst = F.instantiate ~sizes:c.sizes ~id:i specs.(i) in
      (inst.S.train, inst.S.valid, inst.S.test))

(* ------------------------------------------------------------------ *)
(* Reading instances back                                              *)
(* ------------------------------------------------------------------ *)

let all_categories =
  [
    S.Adder; S.Divider; S.Multiplier; S.Comparator; S.Square_root;
    S.Logic_cone; S.Symmetric; S.Mnist_like; S.Cifar_like;
  ]

let category_of_name name =
  List.find_opt (fun c -> S.category_name c = name) all_categories

(* Load one benchmark; the instance id is its corpus index. *)
let instance_of t i =
  let e = Format.entry t i in
  let category =
    (* An unknown category string (from a newer generator) still loads;
       Logic_cone is the neutral no-structure bucket. *)
    Option.value ~default:S.Logic_cone (category_of_name e.Format.category)
  in
  let spec =
    {
      S.id = i;
      name = e.Format.name;
      category;
      num_inputs = e.Format.num_inputs;
      description = e.Format.description;
    }
  in
  let train, valid, test = Format.read_datasets t i in
  { S.spec; train; valid; test }

let instances ?shard t =
  List.map (instance_of t) (Shard.select ?shard (Format.count t))

(* ------------------------------------------------------------------ *)
(* CLI option parsing                                                  *)
(* ------------------------------------------------------------------ *)

let parse_families s =
  let parts = String.split_on_char ',' (String.trim s) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match F.family_of_name (String.trim p) with
        | Some f -> go (f :: acc) rest
        | None ->
            Error
              (Printf.sprintf
                 "unknown family %S (want a comma list of: %s)" p
                 (String.concat ", " (List.map F.family_name F.all_families))))
  in
  match parts with
  | [] | [ "" ] -> Error "empty family list"
  | parts -> go [] parts

let parse_noise s =
  let parts = String.split_on_char ',' (String.trim s) in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match int_of_string_opt (String.trim p) with
        | Some n when n >= 0 && n <= 1000 -> go (n :: acc) rest
        | _ ->
            Error
              (Printf.sprintf "bad noise rate %S: want permille in 0..1000" p))
  in
  match parts with
  | [] | [ "" ] -> Error "empty noise sweep"
  | parts -> go [] parts
