(* Workload [serve]: the [lsml serve] executable with a persistent cache
   file, driven by closed-loop client connections (one per core): each
   client sends its next request only after the previous reply arrived.
   Cold solves on suite PLAs, repeats of earlier solves (cache hits),
   evals of returned circuits and verifies against a balanced copy.  The
   only workload that exercises protocol parsing, admission, the cache
   and the cache log. *)

open Common
module J = Serve.Json
module S = Benchgen.Suite
module D = Data.Dataset

type config = {
  datasets : int;  (** distinct training PLAs *)
  min_kb : int;
  max_kb : int;
  test_samples : int;  (** samples of each eval PLA *)
  clients : int;
}

(* Teams that answer in well under a second on these sizes.  The first
   one's solves are the circuits verify requests check (see
   [build_request]). *)
let teams = [ "team10"; "team1"; "team5"; "team6"; "team9" ]

type dataset = {
  train_json : string;  (** training PLA as a JSON string, encoded once *)
  test_pla : string;
  test : D.t;
}

let pla_text d = Data.Pla.print (Data.Pla.of_dataset d)

(* The corpus: suite datasets whose training PLA is [min_kb, max_kb]
   long, the size drawn log-uniformly and the benchmark among those whose
   width gives 200..1000 samples at that size.  The corpus is fixed; the
   run seed draws the traffic (see [client_loop]). *)
let make_datasets cfg =
  let st = Random.State.make [| 0x73727665 |] in
  List.init cfg.datasets (fun i ->
      let lo = log (float_of_int cfg.min_kb) and hi = log (float_of_int cfg.max_kb) in
      let bytes = int_of_float (1024.0 *. exp (lo +. Random.State.float st (hi -. lo))) in
      let fits (b : S.benchmark) =
        let samples = bytes / (b.S.num_inputs + 3) in
        samples >= 200 && samples <= 1000
      in
      let pool = List.filter fits (Array.to_list S.benchmarks) in
      let b = List.nth pool (Random.State.int st (List.length pool)) in
      let train = bytes / (b.S.num_inputs + 3) in
      let inst = S.instantiate ~sizes:{ S.train; valid = 1; test = cfg.test_samples } ~seed:i b in
      { train_json = J.to_string (J.Str (pla_text inst.S.train));
        test_pla = pla_text inst.S.test; test = inst.S.test })
  |> Array.of_list

(* ---- daemon lifecycle ---- *)

let run_dir = ".perfbench"
let socket = Filename.concat run_dir "serve.sock"
let cache_file = Filename.concat run_dir "cache.log"

(* The daemon's default result-cache size, passed explicitly. *)
let cache_entries = 256

type daemon = { pid : int; listen : Serve.Server.listen }

let live = ref []

(* Graceful shutdown (drain, then exit); a daemon that cannot be reached
   is killed.  Either way it is reaped before returning. *)
let stop_daemon d =
  if List.mem d.pid !live then begin
    live := List.filter (( <> ) d.pid) !live;
    (try
       let c = Serve.Client.connect d.listen in
       Fun.protect
         ~finally:(fun () -> Serve.Client.close c)
         (fun () -> ignore (Serve.Client.rpc_raw c {|{"op":"shutdown"}|}))
     with Unix.Unix_error _ | Failure _ | End_of_file | Sys_error _ ->
       (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
    match Unix.waitpid [] d.pid with _ -> () | exception Unix.Unix_error _ -> ()
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start_daemon ~lsml ~jobs =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ socket; cache_file ];
  let log = Unix.openfile (Filename.concat run_dir "serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let pid =
    Unix.create_process lsml
      [| lsml; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs; "--cache-size";
         string_of_int cache_entries; "--cache-file"; cache_file |]
      devnull log log
  in
  Unix.close log;
  Unix.close devnull;
  live := pid :: !live;
  let d = { pid; listen = `Unix socket } in
  (* Ready once a connection is accepted. *)
  let t0 = now () in
  let rec wait () =
    match Serve.Client.connect d.listen with
    | c -> Serve.Client.close c
    | exception Unix.Unix_error _ ->
        if now () -. t0 > 30.0 then failwith "lsml serve did not come up"
        else begin
          (match Unix.waitpid [ WNOHANG ] pid with
          | 0, _ -> ()
          | _ ->
              live := List.filter (( <> ) pid) !live;
              failwith "lsml serve exited during start-up");
          Unix.sleepf 0.005;
          wait ()
        end
  in
  wait ();
  d

(* ---- requests ---- *)

type kind = Cold | Hit | Eval | Verify

let kind_name = function
  | Cold -> "solve_cold"
  | Hit -> "solve_hit"
  | Eval -> "eval"
  | Verify -> "verify"

type solved = {
  line : string;  (** the solve request, resent verbatim for a hit *)
  payload : string;  (** raw bytes of the cold result *)
  aag : string;
  ds : int;
}

type sample = { kind : kind; line_sent : string; latency_ms : float; reply : string; src : solved option }

let request ~trace fields =
  J.to_string (J.Obj (if trace then fields @ [ ("trace", J.Bool true) ] else fields))

(* Byte span of the JSON value that starts at [i]: strings with escapes,
   nested objects and lists, or a bare scalar. *)
let value_end s i =
  let n = String.length s in
  let rec str j = if s.[j] = '\\' then str (j + 2) else if s.[j] = '"' then j + 1 else str (j + 1) in
  let rec nest j depth =
    if j >= n then j
    else
      match s.[j] with
      | '"' -> nest (str (j + 1)) depth
      | '{' | '[' -> nest (j + 1) (depth + 1)
      | '}' | ']' -> if depth = 1 then j + 1 else nest (j + 1) (depth - 1)
      | _ -> nest (j + 1) depth
  in
  match s.[i] with
  | '"' -> str (i + 1)
  | '{' | '[' -> nest i 0
  | _ ->
      let j = ref i in
      while !j < n && not (List.mem s.[!j] [ ','; '}'; ']' ]) do incr j done;
      !j

(* The raw bytes of a top-level field of a response line. *)
let raw_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let pl = String.length pat in
  let rec find i =
    if i + pl > String.length line then None
    else if String.sub line i pl = pat then Some (i + pl)
    else find (i + 1)
  in
  (* Top-level keys of a response come before the nested payload, except
     [result] whose value is the payload itself: search from the left. *)
  Option.map (fun i -> String.sub line i (value_end line i - i)) (find 0)

let reply_type reply =
  match J.parse reply with
  | j -> Option.bind (J.member "type" j) J.get_string
  | exception J.Parse_error _ -> None

(* ---- the closed loop ---- *)

type state = {
  lock : Mutex.t;
  datasets : dataset array;
  mutable next_cold : int;
  by_cold : (int, solved) Hashtbl.t;  (** completed solves by cold index *)
  latest : solved option array;  (** latest completed solve per dataset *)
  mutable last : solved option;  (** latest completed solve *)
  reused : int array;  (** hits, evals and verifies issued, per kind *)
  mutable samples : sample list;
  mutable errors : string list;
}

let add_solved stt ~cold s =
  Hashtbl.replace stt.by_cold cold s;
  stt.latest.(s.ds) <- Some s;
  stt.last <- Some s

(* Mix once the first solve is back: 40% cold, 20% hits, 15% evals and
   25% verifies, dealt from a deck of 40 that is reshuffled when used up,
   so every run holds the same proportions.  The mix is synthetic, not
   observed traffic: each share is sized for a steady metric.  A 25 s
   run on 2 cores holds about 300 cold solves, more than the 200 their
   p95 needs; hits and evals are cheap and steady, so smaller shares
   suffice; verifies take a few milliseconds but spread wider, and their
   median needs the larger share to hold still from run to run. *)
let deck = List.concat [ List.init 16 (fun _ -> Cold); List.init 8 (fun _ -> Hit);
                         List.init 6 (fun _ -> Eval); List.init 10 (fun _ -> Verify) ]

let shuffled st =
  let a = Array.of_list deck in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let choose st stt hand =
  if stt.last = None then Cold
  else begin
    if !hand = [] then hand := shuffled st;
    match !hand with
    | k :: rest -> hand := rest; k
    | [] -> Cold
  end

let kind_index = function Cold -> 0 | Hit -> 1 | Eval -> 2 | Verify -> 3

(* Cold solves walk (dataset, team, seed) so no two share a cache key;
   [epoch] keeps a second loop on the same daemon off the first one's keys.
   What the others reuse is a rotation, not a draw, so every run reuses
   the same solves in the same order: the [j]-th hit repeats the latest
   solve of dataset [j mod n] (at most [n] solves old, so still in the
   daemon's [cache_entries]-entry cache), the [j]-th eval takes the [j]-th
   cold solve once it is back, and the [j]-th verify the solve of dataset
   [j mod n] by the first team (the first [n] cold solves).  Verifies stay
   on the first team's depth-8 decision trees: on every team's circuits
   their latency spans 0.2 ms to 3 s, a third of the runs' verifies took
   over 100 ms, and the median sat in a sparse stretch of that range and
   moved by half from run to run. *)
let build_request ~trace ~epoch stt kind =
  let j = stt.reused.(kind_index kind) in
  stt.reused.(kind_index kind) <- j + 1;
  let or_last = function Some s -> s | None -> Option.get stt.last in
  let reuse_cold () = or_last (Hashtbl.find_opt stt.by_cold j) in
  match kind with
  | Cold ->
      let k = stt.next_cold in
      stt.next_cold <- k + 1;
      let nd = Array.length stt.datasets and nt = List.length teams in
      let ds = k mod nd in
      let team = List.nth teams (k / nd mod nt) in
      let seed = 1 + (epoch * 1_000_000) + (k / (nd * nt)) in
      ( request ~trace
          [ ("op", J.Str "solve"); ("team", J.Str team); ("seed", J.Int seed);
            ("train", J.Raw stt.datasets.(ds).train_json) ],
        None,
        k )
  | Hit ->
      let s = or_last stt.latest.(j mod Array.length stt.datasets) in
      (s.line, Some s, -1)
  | Eval ->
      let s = reuse_cold () in
      ( request ~trace
          [ ("op", J.Str "eval"); ("aag", J.Str s.aag);
            ("pla", J.Str stt.datasets.(s.ds).test_pla) ],
        Some s,
        -1 )
  | Verify ->
      let s = or_last (Hashtbl.find_opt stt.by_cold (j mod Array.length stt.datasets)) in
      let balanced = Aig.Io.to_string (Aig.Opt.balance (Aig.Io.of_string s.aag)) in
      ( request ~trace
          [ ("op", J.Str "verify"); ("a", J.Str s.aag); ("b", J.Str balanced);
            ("conflicts", J.Int conflict_limit) ],
        Some s,
        -1 )

(* The traffic: each client's sequence of request kinds, drawn from the
   run seed. *)
let client_loop ~trace ~epoch stt d ~seed ~client ~deadline =
  let st = Random.State.make [| 0x636c69; seed; epoch; client |] in
  let hand = ref [] in
  let conn = Serve.Client.connect d.listen in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close conn)
    (fun () ->
      while now () < deadline do
        let kind, (line, src, cold) =
          Mutex.protect stt.lock (fun () ->
              let kind = choose st stt hand in
              (kind, build_request ~trace ~epoch stt kind))
        in
        let t0 = now () in
        let reply = Serve.Client.rpc_raw conn line in
        let dt = 1000.0 *. (now () -. t0) in
        Mutex.protect stt.lock (fun () ->
            match reply with
            | None -> stt.errors <- "connection closed by the daemon" :: stt.errors
            | Some reply -> (
                stt.samples <- { kind; line_sent = line; latency_ms = dt; reply; src } :: stt.samples;
                if kind = Cold && reply_type reply = Some "result" then
                  match (raw_field reply "result", J.parse reply) with
                  | Some payload, j -> (
                      match Option.bind (J.member "result" j) (J.member "aag") with
                      | Some (J.Str aag) ->
                          let ds = cold mod Array.length stt.datasets in
                          add_solved stt ~cold { line; payload; aag; ds }
                      | _ -> ())
                  | None, _ | (exception J.Parse_error _) -> ()));
        if reply = None then raise Exit
      done)

let drive ?(trace = false) cfg datasets d ~seed ~seconds =
  let epoch = if trace then 1 else 0 in
  let stt =
    { lock = Mutex.create (); datasets; next_cold = 0; by_cold = Hashtbl.create 512;
      latest = Array.make (Array.length datasets) None; last = None; reused = Array.make 4 0;
      samples = []; errors = [] }
  in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let client i () =
    try client_loop ~trace ~epoch stt d ~seed ~client:i ~deadline with
    | Exit -> ()
    | e -> Mutex.protect stt.lock (fun () -> stt.errors <- Printexc.to_string e :: stt.errors)
  in
  (* One domain per client, this one included: client threads of one
     domain would take turns on its runtime lock, and a reply would wait
     for the other client's request building before its time is taken. *)
  let others = List.init (cfg.clients - 1) (fun i -> Domain.spawn (client (i + 1))) in
  client 0 ();
  List.iter Domain.join others;
  (List.rev stt.samples, stt.errors, now () -. t0)

(* ---- checks ---- *)

(* Every response is typed [result]; each hit replays its cold payload
   byte for byte; eval accuracies match the naive simulator; no verify
   refutes a circuit against its own balanced copy. *)
let check_sample datasets (s : sample) =
  match reply_type s.reply with
  | Some "result" -> (
      match (s.kind, s.src) with
      | Cold, _ -> (
          match raw_field s.reply "cached" with
          | Some "false" -> None
          | _ -> Some "cold solve was not computed afresh")
      | Hit, Some src -> (
          match (raw_field s.reply "cached", raw_field s.reply "result") with
          | Some "true", Some p when p = src.payload -> None
          | Some "true", _ -> Some "cached payload differs from the cold payload"
          | _ -> Some "repeated solve missed the cache")
      | Eval, Some src -> (
          let reported =
            Option.bind
              (Option.bind (J.member "result" (J.parse s.reply)) (J.member "accuracy"))
              J.get_float
          in
          let g = Aig.Io.of_string src.aag in
          let acc = oracle_accuracy g datasets.(src.ds).test in
          match reported with
          | Some a when Float.abs (a -. acc) <= 1e-9 -> None
          | _ -> Some "eval accuracy differs from the simulator")
      | Verify, Some _ -> (
          match
            Option.bind
              (Option.bind (J.member "result" (J.parse s.reply)) (J.member "verdict"))
              J.get_string
          with
          | Some ("equivalent" | "unknown") -> None
          | _ -> Some "circuit refuted against its balanced copy")
      | (Hit | Eval | Verify), None -> Some "no source solve")
  | Some t -> Some (Printf.sprintf "%s response typed %S" (kind_name s.kind) t)
  | None -> Some (kind_name s.kind ^ " response is not JSON")

let check lg datasets samples errors =
  List.iter (fun e -> attempt lg false ~what:("serve: " ^ e)) errors;
  List.iter
    (fun s ->
      match check_sample datasets s with
      | None -> attempt lg true ~what:""
      | Some p -> attempt lg false ~what:("serve " ^ kind_name s.kind ^ ": " ^ p))
    samples

let latencies kind samples =
  List.filter_map (fun s -> if s.kind = kind then Some s.latency_ms else None) samples

(* Mean accuracy (in percent) the eval replies report, each checked
   against the naive simulator by [check_sample], and the AND gates of
   each circuit the cold solves returned, counted here. *)
let e2e_quality samples =
  let mean xs = sum xs /. float_of_int (List.length xs) in
  let field path s =
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some (J.parse s.reply)) path
  in
  let accs =
    List.filter_map
      (fun s ->
        if s.kind = Eval then Option.bind (field [ "result"; "accuracy" ] s) J.get_float else None)
      samples
  in
  let gates =
    List.filter_map
      (fun s ->
        match (s.kind, field [ "result"; "aag" ] s) with
        | Cold, Some (J.Str aag) -> Some (float_of_int (reachable_ands (Aig.Io.of_string aag)))
        | _ -> None)
      samples
  in
  (100.0 *. mean accs, gates)

(* Latency percentiles of each request kind. *)
let kinds samples =
  [
    m "serve.cold_p50_ms" "ms" (median (latencies Cold samples));
    m "serve.cold_p95_ms" "ms" (quantile 0.95 (latencies Cold samples));
    m "serve.hit_p50_ms" "ms" (median (latencies Hit samples));
    m "serve.eval_p50_ms" "ms" (median (latencies Eval samples));
    m "serve.verify_p50_ms" "ms" (median (latencies Verify samples));
  ]

(* ---- per-layer ---- *)

(* The value of a counter or the p50 bucket of a histogram on the
   daemon's Prometheus page. *)
let prom_value page name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k = name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' page)

let prom_p50 page name =
  let buckets =
    List.filter_map
      (fun line ->
        try Scanf.sscanf line "%s@{le=\"%d\"} %d" (fun k le c -> if k = name ^ "_bucket" then Some (le, c) else None)
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      (String.split_on_char '\n' page)
  in
  match prom_value page (name ^ "_count") with
  | Some total when total > 0.0 ->
      List.find_map
        (fun (le, c) -> if float_of_int c >= total /. 2.0 then Some (float_of_int le) else None)
        buckets
      |> Option.value ~default:nan
  | _ -> 0.0

let offline_ms f = 1000.0 *. snd (time f)

(* Offline re-timing of the request-side work on a sample of the lines
   this run sent: what a request of each kind costs before any solving. *)
let layers datasets samples ~page ~cache_bytes =
  let per_kind kind = List.filteri (fun i _ -> i < 40) (List.filter (fun s -> s.kind = kind) samples) in
  let med f xs = if xs = [] then 0.0 else median (List.map f xs) in
  let parse s = offline_ms (fun () -> ignore (Serve.Protocol.parse s.line_sent)) in
  let solve_of s =
    match Serve.Protocol.parse s.line_sent with
    | Ok { Serve.Protocol.req = Serve.Protocol.Solve r; _ } -> r
    | _ -> invalid_arg "not a solve line"
  in
  let fp s =
    let r = solve_of s in
    offline_ms (fun () ->
        ignore Resil.Fingerprint.(hash64 (render (Serve.Protocol.solve_cache_fields r))))
  in
  let pla s =
    let r = solve_of s in
    offline_ms (fun () -> ignore (Data.Pla.to_dataset (Data.Pla.parse r.Serve.Protocol.train)))
  in
  let aag s =
    match s.src with Some src -> offline_ms (fun () -> ignore (Aig.Io.of_string src.aag)) | None -> 0.0
  in
  let eval s =
    match s.src with
    | Some src ->
        let g = Aig.Io.of_string src.aag in
        let d = datasets.(src.ds).test in
        offline_ms (fun () -> ignore (Contest.Solver.evaluate g d))
    | None -> 0.0
  in
  let test_pla s =
    match s.src with
    | Some src ->
        offline_ms (fun () ->
            ignore (Data.Pla.to_dataset (Data.Pla.parse datasets.(src.ds).test_pla)))
    | None -> 0.0
  in
  let cold = per_kind Cold and hit = per_kind Hit and ev = per_kind Eval and ve = per_kind Verify in
  let solve_side xs = med parse xs +. med fp xs +. med pla xs in
  let p50 kind = median (latencies kind samples) in
  let unattributed kind xs offline = if xs = [] then 0.0 else p50 kind -. offline in
  let all = cold @ hit @ ev @ ve in
  let hits = Option.value ~default:0.0 (prom_value page "lsml_serve_cache_hits_total") in
  let misses = Option.value ~default:0.0 (prom_value page "lsml_serve_cache_misses_total") in
  [
    m "serve.parse_ms" "ms" (med parse all);
    m "resil.fingerprint_ms" "ms" (med fp (cold @ hit));
    m "data.pla_parse_ms" "ms" (med pla (cold @ hit));
    m "aig.aag_parse_ms" "ms" (med aag (ev @ ve));
    m "aig.eval_ms" "ms" (med eval ev);
    m "serve.unattributed_ms.solve_hit" "ms" (unattributed Hit hit (solve_side hit));
    m "serve.unattributed_ms.solve_cold" "ms" (unattributed Cold cold (solve_side cold));
    m "serve.unattributed_ms.eval" "ms"
      (unattributed Eval ev (med parse ev +. med aag ev +. med test_pla ev +. med eval ev));
    m "serve.unattributed_ms.verify" "ms"
      (unattributed Verify ve (med parse ve +. (2.0 *. med aag ve)));
    m "serve.cache_hit_frac" "frac" (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    m "serve.queue_wait_p50_us" "us" (prom_p50 page "lsml_serve_queue_wait_us");
    m "serve.coalesced" "count"
      (Option.value ~default:0.0 (prom_value page "lsml_serve_singleflight_coalesced_total"));
    m "serve.cache_log_bytes" "bytes" cache_bytes;
    m "sat.conflicts" "count" (Option.value ~default:0.0 (prom_value page "lsml_sat_conflicts_total"));
    m "sat.propagations" "count"
      (Option.value ~default:0.0 (prom_value page "lsml_sat_propagations_total"));
  ]
