type profile = Mnist | Cifar

type t = {
  profile : profile;
  num_pixels : int;
  noise : float;
  prototypes : bool array array array;  (* class -> variant -> pixels *)
}

let group_pairs =
  [| ([ 0; 1; 2; 3; 4 ], [ 5; 6; 7; 8; 9 ]);
     ([ 1; 3; 5; 7; 9 ], [ 0; 2; 4; 6; 8 ]);
     ([ 0; 1; 2 ], [ 3; 4; 5 ]);
     ([ 0; 1 ], [ 2; 3 ]);
     ([ 4; 5 ], [ 6; 7 ]);
     ([ 6; 7 ], [ 8; 9 ]);
     ([ 1; 7 ], [ 3; 8 ]);
     ([ 0; 9 ], [ 3; 8 ]);
     ([ 1; 3 ], [ 7; 8 ]);
     ([ 0; 3 ], [ 8; 9 ]) |]

let random_bitmap st n density =
  Array.init n (fun _ -> Random.State.float st 1.0 < density)

let create profile ~seed =
  let st = Random.State.make [| 0x1a93e; seed; (match profile with Mnist -> 1 | Cifar -> 2) |] in
  match profile with
  | Mnist ->
      (* Well-separated prototypes: independent bitmaps, 3 variants per
         class differing in a few pixels, light noise. *)
      let n = 196 in
      let prototypes =
        Array.init 10 (fun _ ->
            let base = random_bitmap st n 0.35 in
            Array.init 3 (fun _ ->
                Array.mapi
                  (fun _ b -> if Random.State.float st 1.0 < 0.05 then not b else b)
                  base))
      in
      { profile; num_pixels = n; noise = 0.08; prototypes }
  | Cifar ->
      (* Crowded prototypes: all classes share a common background and
         differ on ~20% of pixels, with heavy noise. *)
      let n = 192 in
      let background = random_bitmap st n 0.5 in
      let prototypes =
        Array.init 10 (fun _ ->
            let base =
              Array.map
                (fun b -> if Random.State.float st 1.0 < 0.1 then not b else b)
                background
            in
            Array.init 3 (fun _ ->
                Array.mapi
                  (fun _ b -> if Random.State.float st 1.0 < 0.08 then not b else b)
                  base))
      in
      { profile; num_pixels = n; noise = 0.34; prototypes }

let sample t ~comparison st =
  if comparison < 0 || comparison >= Array.length group_pairs then
    invalid_arg "Image_bench.sample: comparison out of range";
  let group_a, group_b = group_pairs.(comparison) in
  let in_b = Random.State.bool st in
  let labels = if in_b then group_b else group_a in
  let label = List.nth labels (Random.State.int st (List.length labels)) in
  let variants = t.prototypes.(label) in
  let proto = variants.(Random.State.int st (Array.length variants)) in
  let pixels =
    Array.map
      (fun b -> if Random.State.float st 1.0 < t.noise then not b else b)
      proto
  in
  (pixels, in_b)
