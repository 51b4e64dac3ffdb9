(* Shared plumbing of the benchmark: clocks, order statistics, metric
   records, the machine stamp and the result line. *)

let now = Unix.gettimeofday

(* A run is stopped [watchdog_s] after it started (main.ml), inside the
   180 s a run may take; work whose length is optional checks [time_left]
   to end well before that. *)
let started = now ()
let watchdog_s = 175
let time_left () = float_of_int watchdog_s -. (now () -. started)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of a sample, [q] in [0, 1]; nan when
   empty.  The sample is copied, never reordered in place. *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.of_int (truncate pos)) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

(* Geometric mean; nan when empty. *)
let geomean xs = exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* Conflict limit of every CEC call the benchmark makes or requests. *)
let conflict_limit = 20_000

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Peak resident set of a process in MiB, from the kernel's high-water
   mark; nan where /proc is not available. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Correctness ledger of one run.  Every check that fails is recorded
   with a reason (printed to stderr) and makes the run incorrect. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let ledger () = { attempted = 0; failed = 0; problems = [] }

let attempt lg ok ~what =
  lg.attempted <- lg.attempted + 1;
  if not ok then begin
    lg.failed <- lg.failed + 1;
    lg.problems <- what :: lg.problems
  end

let problem lg what = lg.problems <- what :: lg.problems

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision; JSON has no non-finite numbers, and a metric that
   could not be measured must not pass for a measurement. *)
let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_float x.value) (json_string x.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

type stamp = {
  nproc : int;
  git_rev : string;
  profile : string;
}

let stamp_line st ~workload ~seed ~seconds ~trace =
  Printf.sprintf
    "{\"stamp\": {\"workload\": %s, \"seed\": %d, \"seconds\": %d, \"trace\": \
     %b, \"nproc\": %d, \"recommended_jobs\": %d, \"ocaml\": %s, \
     \"git_rev\": %s, \"profile\": %s}}"
    (json_string workload) seed seconds trace st.nproc
    (Parallel.Pool.recommended_jobs ())
    (json_string Sys.ocaml_version)
    (json_string st.git_rev) (json_string st.profile)

(* Telemetry counter total by name (0 when never declared). *)
let counter name =
  match List.assoc_opt name (Telemetry.counters ()) with
  | Some v -> v
  | None -> 0

(* Sum of the durations (seconds) of the program's own spans of a name. *)
let span_seconds name =
  List.fold_left
    (fun acc (s : Telemetry.span_record) ->
      if s.Telemetry.span_name = name then acc +. (s.Telemetry.span_dur /. 1e6)
      else acc)
    0.0 (Telemetry.spans ())

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* Run [setup] [reps] times and keep the last result: set-up time is the
   median of the repetitions, so one slow start does not decide it.
   [setup] returns its result with the seconds it counts as set-up. *)
let repeated_setup ~reps setup =
  let rec go i acc last =
    if i = reps then
      match last with Some r -> (r, median acc) | None -> invalid_arg "repeated_setup"
    else begin
      let r, dt = setup () in
      go (i + 1) (dt :: acc) (Some r)
    end
  in
  go 0 [] None

let timed_setup f () = time f

(* Whole passes of a fixed unit of work: at least one, and another only
   while it is expected to end within [seconds], so a run measures about
   [seconds] without cutting a pass short.  Returns each pass's result, in
   order, and the wall time of them all. *)
let passes ~seconds pass =
  let t0 = now () in
  let rec go acc =
    let acc = pass () :: acc in
    let elapsed = now () -. t0 in
    let per_pass = elapsed /. float_of_int (List.length acc) in
    if elapsed +. per_pass <= seconds then go acc else (List.rev acc, elapsed)
  in
  go []

(* Reachable AND count, computed here rather than by the library so the
   gate-budget checks do not trust the code they check. *)
let reachable_ands g =
  let module G = Aig.Graph in
  let live = Array.make (G.num_vars g) false in
  live.(G.var_of_lit (G.output g)) <- true;
  let count = ref 0 in
  (* Fanins precede their AND node, so one descending sweep suffices. *)
  for v = G.num_vars g - 1 downto 0 do
    if live.(v) && G.is_and_var g v then begin
      incr count;
      let a, b = G.fanins g v in
      live.(G.var_of_lit a) <- true;
      live.(G.var_of_lit b) <- true
    end
  done;
  !count

(* Accuracy by the naive reference simulator, as an oracle independent
   of the scoring path under test. *)
let oracle_accuracy g d =
  let out = Aig.Sim.simulate g (Data.Dataset.columns d) in
  let n = Data.Dataset.num_samples d in
  if n = 0 then nan
  else begin
    let expected = Data.Dataset.outputs d in
    let agree = ref 0 in
    for i = 0 to n - 1 do
      if Words.get out i = Words.get expected i then incr agree
    done;
    float_of_int !agree /. float_of_int n
  end
