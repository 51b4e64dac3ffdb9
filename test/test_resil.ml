(* Tests for the resilience layer: budgets, guarded execution, fault
   injection, and the resume journal. *)

module B = Resil.Budget
module F = Resil.Fault
module G = Resil.Guard
module J = Resil.Journal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The fault rate/seed are process-global; every test that raises them
   must restore the defaults so the rest of the suite runs fault-free. *)
let with_faults ~rate ~seed f =
  F.set_rate rate;
  F.set_seed seed;
  Fun.protect
    ~finally:(fun () ->
      F.set_rate 0.0;
      F.set_seed 0)
    f

(* ---- Budget ---- *)

let test_budget_fuel () =
  let b = B.create ~fuel:5 () in
  let burned = ref 0 in
  check_bool "fuel exhausts" true
    (try
       B.with_budget b (fun () ->
           for _ = 1 to 100 do
             B.check ();
             incr burned
           done;
           false)
     with B.Timed_out -> true);
  check_int "exactly the fuel allowance ran" 5 !burned;
  (* [run] maps expiry to [None] and completion to [Some]. *)
  check_bool "run expires" true
    (B.run ~fuel:5 (fun () -> for _ = 1 to 100 do B.check () done) = None);
  check_bool "run completes" true (B.run ~fuel:5 (fun () -> B.check (); 7) = Some 7)

let test_budget_deadline () =
  (* A deadline already in the past fires at the next wall-clock read,
     i.e. within one clock stride of polls. *)
  let b = B.create ~time_limit:(-1.0) () in
  check_bool "deadline fires" true
    (try
       B.with_budget b (fun () ->
           for _ = 1 to 1000 do
             B.check ()
           done;
           false)
     with B.Timed_out -> true)

let test_budget_unbudgeted_noop () =
  (* No ambient budget: check is a no-op, never raises. *)
  for _ = 1 to 1000 do
    B.check ()
  done;
  check_bool "expired outside scope" false (B.expired ())

let test_budget_nesting () =
  let outer = B.create ~fuel:100 () in
  let inner_raised = ref false in
  B.with_budget outer (fun () ->
      B.check ();
      (try
         B.with_budget (B.create ~fuel:2 ()) (fun () ->
             for _ = 1 to 10 do
               B.check ()
             done)
       with B.Timed_out -> inner_raised := true);
      (* The outer budget is restored and still has fuel. *)
      for _ = 1 to 50 do
        B.check ()
      done);
  check_bool "inner budget fired" true !inner_raised

let test_budget_expired () =
  B.with_budget (B.create ~fuel:0 ()) (fun () ->
      check_bool "expired without raising" true (B.expired ()));
  B.with_budget
    (B.create ~fuel:3 ())
    (fun () -> check_bool "not expired with fuel left" false (B.expired ()))

(* ---- Guard ---- *)

let test_guard_completed () =
  let o = G.run ~key:"t/ok" ~fallback:(fun () -> -1) (fun ~attempt:_ -> 42) in
  check_int "value" 42 o.G.value;
  check_bool "completed" true (o.G.status = G.Completed);
  check_bool "no fallback" false o.G.fell_back;
  check_int "no crashes" 0 o.G.crashes

let test_guard_recovers_after_crash () =
  let calls = ref 0 in
  let o =
    G.run ~key:"t/flaky"
      ~fallback:(fun () -> -1)
      (fun ~attempt ->
        incr calls;
        if attempt = 0 then failwith "first attempt dies";
        7)
  in
  check_int "value from retry" 7 o.G.value;
  check_bool "recovered" true (o.G.status = G.Recovered);
  check_int "one crash" 1 o.G.crashes;
  check_int "two attempts" 2 !calls

let test_guard_crashes_twice () =
  let o =
    G.run ~key:"t/dead"
      ~fallback:(fun () -> 99)
      (fun ~attempt:_ -> failwith "always dies")
  in
  check_int "fallback value" 99 o.G.value;
  check_bool "classified as crash" true
    (match o.G.status with G.Crashed _ -> true | _ -> false);
  check_int "two crashes" 2 o.G.crashes;
  check_bool "fell back" true o.G.fell_back

let test_guard_timeout_no_retry () =
  let calls = ref 0 in
  let o =
    G.run ~fuel:3 ~key:"t/slow"
      ~fallback:(fun () -> 99)
      (fun ~attempt:_ ->
        incr calls;
        for _ = 1 to 100 do
          B.check ()
        done;
        0)
  in
  check_int "fallback value" 99 o.G.value;
  check_bool "timed out" true (o.G.status = G.Timed_out);
  check_int "timeouts counted" 1 o.G.timeouts;
  (* Timeouts do not retry: re-running out-of-budget work is futile. *)
  check_int "single attempt" 1 !calls

let test_guard_capture () =
  check_bool "ok" true (G.capture (fun () -> 5) = Ok 5);
  check_bool "crash captured" true
    (match G.capture (fun () -> failwith "x") with
    | Error _ -> true
    | Ok _ -> false);
  (* Timeouts pass through capture so the enclosing run classifies them. *)
  check_bool "timeout re-raised" true
    (try
       B.with_budget (B.create ~fuel:0 ()) (fun () ->
           ignore (G.capture (fun () -> B.check ()));
           false)
     with B.Timed_out -> true)

(* ---- Fault ---- *)

let fp = F.declare "test.point"

let firing_pattern ~key ~attempt ~n =
  F.with_context ~key ~attempt (fun () ->
      List.init n (fun _ ->
          try
            F.point fp;
            false
          with F.Injected _ -> true))

let test_fault_deterministic () =
  with_faults ~rate:0.5 ~seed:42 (fun () ->
      let a = firing_pattern ~key:"k" ~attempt:0 ~n:100 in
      let b = firing_pattern ~key:"k" ~attempt:0 ~n:100 in
      check_bool "identical pattern across runs" true (a = b);
      check_bool "some faults fire at rate 0.5" true (List.mem true a);
      check_bool "not every call fires at rate 0.5" true (List.mem false a);
      let salted = firing_pattern ~key:"k" ~attempt:1 ~n:100 in
      check_bool "attempt salt changes the pattern" true (a <> salted);
      let other = firing_pattern ~key:"other" ~attempt:0 ~n:100 in
      check_bool "key changes the pattern" true (a <> other))

let test_fault_no_context_never_fires () =
  with_faults ~rate:1.0 ~seed:1 (fun () ->
      (* Outside with_context, points never fire: production paths that
         are not under a guard are unaffected even at rate 1. *)
      F.point fp;
      F.with_context ~key:"k" ~attempt:0 (fun () ->
          check_bool "fires at rate 1 in context" true
            (try
               F.point fp;
               false
             with F.Injected name -> name = "test.point")))

let test_fault_rate_zero_free () =
  F.with_context ~key:"k" ~attempt:0 (fun () ->
      for _ = 1 to 1000 do
        F.point fp
      done)

let test_fault_registry () =
  check_bool "declared point listed" true (List.mem "test.point" (F.registered ()));
  (* The production fault points registered by the instrumented libraries
     (linked into this test binary) must all be present. *)
  List.iter
    (fun name ->
      check_bool (name ^ " registered") true (List.mem name (F.registered ())))
    [ "espresso.minimize"; "sat.solve"; "parallel.pool.worker" ]

(* ---- Journal ---- *)

let temp_path () =
  let p = Filename.temp_file "lsml-journal" ".test" in
  Sys.remove p;
  p

let test_journal_roundtrip () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let j = J.create ~path ~meta:"cfg v1" () in
      check_int "empty" 0 (J.length j);
      J.record j ~key:"team1/ex00" "0 0x1p-1 nan 10 3";
      J.record j ~key:"team1/ex01" "1 0x1p-2 0x0p+0 5 2";
      J.record j ~key:"team1/ex00" "0 replaced";
      check_int "replace keeps count" 2 (J.length j);
      check_bool "find replaced" true
        (J.find j "team1/ex00" = Some "0 replaced");
      match J.load ~path ~meta:"cfg v1" () with
      | Error e -> Alcotest.fail e
      | Ok j2 ->
          check_int "reloaded rows" 2 (J.length j2);
          check_bool "payload survives" true
            (J.find j2 "team1/ex01" = Some "1 0x1p-2 0x0p+0 5 2");
          check_bool "missing key" true (J.find j2 "team9/ex99" = None))

let test_journal_meta_mismatch () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      ignore (J.create ~path ~meta:"cfg v1" ());
      check_bool "meta mismatch rejected" true
        (match J.load ~path ~meta:"cfg v2" () with Error _ -> true | Ok _ -> false);
      (* Not a journal at all. *)
      let oc = open_out path in
      output_string oc "something else entirely\n";
      close_out oc;
      check_bool "bad magic rejected" true
        (match J.load ~path ~meta:"cfg v1" () with Error _ -> true | Ok _ -> false))

let test_journal_missing_file_is_fresh () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      match J.load ~path ~meta:"cfg" () with
      | Error e -> Alcotest.fail e
      | Ok j ->
          check_int "fresh" 0 (J.length j);
          check_bool "file created" true (Sys.file_exists path))

let test_journal_rejects_separators () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let j = J.create ~path ~meta:"cfg" () in
      let rejected key payload =
        try
          J.record j ~key payload;
          false
        with Invalid_argument _ -> true
      in
      check_bool "tab in key" true (rejected "a\tb" "p");
      check_bool "newline in payload" true (rejected "k" "a\nb"))

let test_journal_byte_identical () =
  (* Two journals fed the same rows in the same order serialize to the
     same bytes — the property behind byte-identical resumed reports. *)
  let pa = temp_path () and pb = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ pa; pb ])
    (fun () ->
      let feed path =
        let j = J.create ~path ~meta:"cfg" () in
        J.record j ~key:"a" "1";
        J.record j ~key:"b" "2";
        j
      in
      ignore (feed pa);
      ignore (feed pb);
      let slurp p =
        let ic = open_in p in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check_bool "same bytes" true (slurp pa = slurp pb))

let suites =
  [ ( "resil",
      [ Alcotest.test_case "budget fuel" `Quick test_budget_fuel;
        Alcotest.test_case "budget deadline" `Quick test_budget_deadline;
        Alcotest.test_case "budget no-op outside scope" `Quick
          test_budget_unbudgeted_noop;
        Alcotest.test_case "budget nesting" `Quick test_budget_nesting;
        Alcotest.test_case "budget expired" `Quick test_budget_expired;
        Alcotest.test_case "guard completed" `Quick test_guard_completed;
        Alcotest.test_case "guard recovers" `Quick test_guard_recovers_after_crash;
        Alcotest.test_case "guard crashes twice" `Quick test_guard_crashes_twice;
        Alcotest.test_case "guard timeout no retry" `Quick
          test_guard_timeout_no_retry;
        Alcotest.test_case "guard capture" `Quick test_guard_capture;
        Alcotest.test_case "fault deterministic" `Quick test_fault_deterministic;
        Alcotest.test_case "fault needs context" `Quick
          test_fault_no_context_never_fires;
        Alcotest.test_case "fault rate zero free" `Quick test_fault_rate_zero_free;
        Alcotest.test_case "fault registry" `Quick test_fault_registry;
        Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "journal meta mismatch" `Quick
          test_journal_meta_mismatch;
        Alcotest.test_case "journal missing file" `Quick
          test_journal_missing_file_is_fresh;
        Alcotest.test_case "journal separators" `Quick
          test_journal_rejects_separators;
        Alcotest.test_case "journal byte identical" `Quick
          test_journal_byte_identical ] ) ]
