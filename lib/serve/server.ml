module P = Protocol
module S = Benchgen.Suite
module D = Data.Dataset

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  jobs : int;
  queue_depth : int;
  cache_size : int;
  cache_file : string option;
  cache_compact_bytes : int;
  metrics_path : string option;
  default_deadline : float option;
  default_fuel : int option;
}

let default_config ~listen =
  {
    listen;
    jobs = Parallel.Pool.recommended_jobs ();
    queue_depth = 64;
    cache_size = 256;
    cache_file = None;
    cache_compact_bytes = 4 * 1024 * 1024;
    metrics_path = None;
    default_deadline = None;
    default_fuel = None;
  }

(* The persistent cache log is only valid under the configuration that
   wrote it: server-side default budgets flow into solve results when a
   request names none, yet are rendered as "none" in the request's cache
   key, so they must be pinned in the log header instead. *)
let config_hash cfg =
  Resil.Fingerprint.(
    hash64
      (render
         [
           str "cachelog" "v1";
           opt_float "deadline" cfg.default_deadline;
           opt_int "fuel" cfg.default_fuel;
         ]))

(* ---- telemetry ---- *)

let c_requests = Telemetry.counter "serve.requests"
let c_completed = Telemetry.counter "serve.completed"
let c_degraded = Telemetry.counter "serve.degraded"
let c_errors = Telemetry.counter "serve.errors"
let c_overloaded = Telemetry.counter "serve.overloaded"
let c_cache_hits = Telemetry.counter "serve.cache.hits"
let c_cache_misses = Telemetry.counter "serve.cache.misses"
let c_cache_evictions = Telemetry.counter "serve.cache.evictions"
let c_cache_replayed = Telemetry.counter "serve.cache.persist_replayed"
let c_sf_leaders = Telemetry.counter "serve.singleflight.leaders"
let c_sf_coalesced = Telemetry.counter "serve.singleflight.coalesced"
let c_faults_injected = Telemetry.counter "serve.faults.injected"
let h_queue_wait_us = Telemetry.histogram "serve.queue_wait_us"

(* ---- chaos fault points (see Resil.Fault; LSML_FAULT_POINTS=serve.
   targets just these) ---- *)

let fp_accept = Resil.Fault.declare "serve.accept"
let fp_read = Resil.Fault.declare "serve.read"
let fp_write = Resil.Fault.declare "serve.write"
let fp_worker = Resil.Fault.declare "serve.worker"

(* ---- state ---- *)

type job = {
  j_conn : int;
  j_id : Json.t;
  j_req : P.request;
  j_key : string option;
      (** single-flight key (the solve cache key); [None] for requests
          that cannot coalesce *)
  j_seq : int;  (** admission sequence number; salts the fault context *)
  j_enq_us : float;  (** enqueue time, for the queue-wait histogram *)
}

(* Replies carry the response parts, not a rendered line: the IO loop
   re-renders them per recipient so coalesced waiters get the same
   payload under their own request ids. *)
type reply = {
  r_conn : int;
  r_id : Json.t;
  r_key : string option;
  r_typ : string;
  r_extra : (string * Json.t) list;
}

type waiter = { w_conn : int; w_id : Json.t }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  inbuf : Buffer.t;
  out : Buffer.t;
  mutable out_pos : int;
  mutable close_after_flush : bool;
  mutable http : bool;  (** first line was an HTTP GET; ignore the rest *)
  mutable saw_line : bool;
}

type phase = Running | Flushing

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  queue : job Bqueue.t;
  cache : Cache.t;
  log : Cache_log.t option;
  replay : Cache_log.replay option;
  inflight : (string, waiter list ref) Hashtbl.t;
      (** single-flight: cache key -> waiters attached to the running
          job; IO-loop domain only *)
  replies : reply Queue.t;
  rmu : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  conns : (int, conn) Hashtbl.t;  (** IO-loop domain only *)
  mutable next_cid : int;
  mutable next_seq : int;
  mutable pending : int;  (** admitted jobs whose reply is not yet routed *)
  mutable listening : bool;
  mutable draining : bool;
  mutable shutdown_reply : (int * Json.t) option;
  mutable phase : phase;
  mutable flush_deadline : float;
  (* Status counters; smu because workers and the IO loop both write. *)
  smu : Mutex.t;
  mutable n_received : int;
  mutable n_completed : int;
  mutable n_degraded : int;
  mutable n_errors : int;
  mutable n_overloaded : int;
}

(* ---- request handlers (worker domains) ---- *)

type outcome = Done | Degraded | Errored

let status_name = function
  | Resil.Guard.Completed -> "completed"
  | Resil.Guard.Recovered -> "recovered"
  | Resil.Guard.Timed_out -> "timeout"
  | Resil.Guard.Crashed _ -> "crash"

let degraded_reason (g : Contest.Solver.guarded) =
  match g.Contest.Solver.status with
  | Resil.Guard.Timed_out -> "deadline"
  | Resil.Guard.Crashed _ -> "crash"
  | _ -> if g.Contest.Solver.timeouts > 0 then "deadline" else "fallback"

let bad_request msg =
  ( "error",
    [ ("code", Json.Str "bad_request"); ("message", Json.Str msg) ],
    Errored )

let parse_pla what text =
  match Data.Pla.to_dataset (Data.Pla.parse text) with
  | d -> Ok d
  | exception Data.Pla.Parse_error { line; msg } ->
      Error (Printf.sprintf "bad %s PLA: line %d: %s" what line msg)
  | exception Failure msg ->
      Error (Printf.sprintf "bad %s PLA: %s" what msg)

let parse_aag what text =
  match Aig.Io.of_string text with
  | g -> Ok g
  | exception Aig.Io.Parse_error { line; msg } ->
      Error (Printf.sprintf "bad %s AAG: line %d: %s" what line msg)

(* Solve goes through Solver.solve_guarded (budget + crash retry +
   constant fallback); its optional passes and eval/verify run under
   [Resil.Budget.run], each with its own fallback on expiry. *)
let handle_solve t (s : P.solve) =
  match Contest.Teams.find s.P.team with
  | None -> bad_request (Printf.sprintf "unknown team %S" s.P.team)
  | Some solver -> (
      let valid_r =
        match s.P.valid with
        | None -> Ok None
        | Some v -> Result.map Option.some (parse_pla "valid" v)
      in
      match (parse_pla "train" s.P.train, valid_r) with
      | Error msg, _ | _, Error msg -> bad_request msg
      | Ok train, Ok valid_opt ->
          let valid = Option.value valid_opt ~default:train in
          if D.num_samples train = 0 then bad_request "empty training set"
          else if D.num_inputs train <> D.num_inputs valid then
            bad_request "train and valid input counts differ"
          else begin
            let key =
              Resil.Fingerprint.(hash64 (render (P.solve_cache_fields s)))
            in
            match Cache.find t.cache key with
            | Some payload ->
                Telemetry.incr c_cache_hits;
                ( "result",
                  [
                    ("op", Json.Str "solve");
                    ("cached", Json.Bool true);
                    ("result", Json.Raw payload);
                  ],
                  Done )
            | None ->
                Telemetry.incr c_cache_misses;
                let deadline =
                  match s.P.deadline_s with
                  | Some _ as d -> d
                  | None -> t.cfg.default_deadline
                in
                let fuel =
                  match s.P.fuel with
                  | Some _ as f -> f
                  | None -> t.cfg.default_fuel
                in
                let placeholder, _ = D.split_at valid 0 in
                let spec =
                  {
                    S.id = 0;
                    name = "serve";
                    category = S.Logic_cone;
                    num_inputs = D.num_inputs train;
                    description = "serve request";
                  }
                in
                let inst = { S.spec; train; valid; test = placeholder } in
                let g =
                  Contest.Solver.solve_guarded ?time_limit:deadline ?fuel
                    ~key:("serve/" ^ key) solver inst
                in
                let degraded =
                  g.Contest.Solver.timeouts > 0
                  || g.Contest.Solver.crashes > 0
                  || g.Contest.Solver.fell_back
                in
                let aig =
                  Aig.Opt.cleanup g.Contest.Solver.result.Contest.Solver.aig
                in
                let technique =
                  g.Contest.Solver.result.Contest.Solver.technique
                in
                (* The optional CEGIS repair post-pass runs under its own
                   copy of the request budget; Repair returns its best
                   intermediate when the budget expires, so even a
                   timed-out pass never loses training accuracy. *)
                let aig, technique =
                  if s.P.repair && not degraded then
                    match
                      Resil.Budget.run ?time_limit:deadline ?fuel (fun () ->
                          Repair.repair ~train aig)
                    with
                    | Some (repaired, st) ->
                        ( repaired,
                          if
                            st.Repair.train_errors_after
                            < st.Repair.train_errors_before
                          then technique ^ "+repair"
                          else technique )
                    | None -> (aig, technique)
                  else (aig, technique)
                in
                (* The optional exact sweep runs under its own copy of the
                   request budget; if it times out the unswept (still
                   correct) circuit is served. *)
                let aig =
                  if s.P.sweep && not degraded then
                    match
                      Resil.Budget.run ?time_limit:deadline ?fuel (fun () ->
                          Contest.Solver.enforce_budget
                            ~patterns:(D.columns valid) ~sweep:true
                            ~seed:s.P.seed aig)
                    with
                    | Some swept -> swept
                    | None -> aig
                  else aig
                in
                let payload =
                  Json.to_string
                    (Json.Obj
                       [
                         ("technique", Json.Str technique);
                         ("gates", Json.Int (Aig.Graph.num_ands aig));
                         ("levels", Json.Int (Aig.Graph.levels aig));
                         ( "valid_acc",
                           Json.Float (Contest.Solver.evaluate aig valid) );
                         ("status", Json.Str (status_name g.Contest.Solver.status));
                         ("aag", Json.Str (Aig.Io.to_string aig));
                       ])
                in
                if degraded then
                  ( "degraded",
                    [
                      ("op", Json.Str "solve");
                      ("cached", Json.Bool false);
                      ("reason", Json.Str (degraded_reason g));
                      ("result", Json.Raw payload);
                    ],
                    Degraded )
                else begin
                  Telemetry.add c_cache_evictions (Cache.put t.cache key payload);
                  (match t.log with
                  | None -> ()
                  | Some log ->
                      Cache_log.append log ~key ~payload;
                      (* Cheap size probe before materializing the live
                         snapshot; maybe_compact re-checks under its own
                         lock. *)
                      if Cache_log.size_bytes log >= t.cfg.cache_compact_bytes
                      then
                        ignore
                          (Cache_log.maybe_compact log
                             ~live:(Cache.entries t.cache)));
                  ( "result",
                    [
                      ("op", Json.Str "solve");
                      ("cached", Json.Bool false);
                      ("result", Json.Raw payload);
                    ],
                    Done )
                end
          end)

let handle_eval t (e : P.eval) =
  match (parse_aag "circuit" e.P.e_aag, parse_pla "dataset" e.P.e_pla) with
  | Error msg, _ | _, Error msg -> bad_request msg
  | Ok g, Ok d ->
      if Aig.Graph.num_inputs g <> D.num_inputs d then
        bad_request "circuit and dataset input counts differ"
      else begin
        let time_limit =
          match e.P.e_deadline_s with
          | Some _ as x -> x
          | None -> t.cfg.default_deadline
        in
        let fuel =
          match e.P.e_fuel with Some _ as x -> x | None -> t.cfg.default_fuel
        in
        let clean = Aig.Opt.cleanup g in
        let gates = Aig.Graph.num_ands clean in
        match
          Resil.Budget.run ?time_limit ?fuel (fun () ->
              Contest.Solver.evaluate g d)
        with
        | None ->
            ( "degraded",
              [ ("op", Json.Str "eval"); ("reason", Json.Str "deadline") ],
              Degraded )
        | Some acc ->
            ( "result",
              [
                ("op", Json.Str "eval");
                ( "result",
                  Json.Obj
                    [
                      ("accuracy", Json.Float acc);
                      ("gates", Json.Int gates);
                      ("levels", Json.Int (Aig.Graph.levels clean));
                      ( "over_budget",
                        Json.Bool (gates > Contest.Solver.gate_budget) );
                    ] );
              ],
              Done )
      end

let handle_verify t (v : P.verify) =
  match (parse_aag "first" v.P.v_a, parse_aag "second" v.P.v_b) with
  | Error msg, _ | _, Error msg -> bad_request msg
  | Ok ga, Ok gb ->
      if Aig.Graph.num_inputs ga <> Aig.Graph.num_inputs gb then
        bad_request "circuit input counts differ"
      else begin
        let time_limit =
          match v.P.v_deadline_s with
          | Some _ as x -> x
          | None -> t.cfg.default_deadline
        in
        let fuel =
          match v.P.v_fuel with Some _ as x -> x | None -> t.cfg.default_fuel
        in
        match
          Resil.Budget.run ?time_limit ?fuel (fun () ->
              Cec.equivalent_stats ~conflict_limit:v.P.v_conflicts ga gb)
        with
        | None ->
            ( "degraded",
              [ ("op", Json.Str "verify"); ("reason", Json.Str "deadline") ],
              Degraded )
        | Some (result, st) ->
            let stats =
              Json.Obj
                [
                  ("decisions", Json.Int st.Sat.Solver.decisions);
                  ("conflicts", Json.Int st.Sat.Solver.conflicts);
                  ("propagations", Json.Int st.Sat.Solver.propagations);
                ]
            in
            let fields =
              match result with
              | Cec.Proved ->
                  [ ("verdict", Json.Str "equivalent"); ("sat", stats) ]
              | Cec.Counterexample cex | Cec.Counterexample_at (_, cex) ->
                  let bits =
                    String.init (Array.length cex) (fun i ->
                        if cex.(i) then '1' else '0')
                  in
                  let output =
                    match result with
                    | Cec.Counterexample_at (i, _) ->
                        [ ("output", Json.Int i) ]
                    | _ -> []
                  in
                  [ ("verdict", Json.Str "counterexample") ]
                  @ output
                  @ [ ("inputs", Json.Str bits); ("sat", stats) ]
              | Cec.Unknown reason ->
                  [
                    ("verdict", Json.Str "unknown");
                    ("reason", Json.Str reason);
                    ("sat", stats);
                  ]
            in
            ("result", [ ("op", Json.Str "verify"); ("result", Json.Obj fields) ], Done)
      end

let op_name = function
  | P.Solve _ -> "solve"
  | P.Eval _ -> "eval"
  | P.Verify _ -> "verify"
  | P.Status -> "status"
  | P.Shutdown -> "shutdown"

let trace_wanted = function
  | P.Solve s -> s.P.trace
  | P.Eval e -> e.P.e_trace
  | P.Verify v -> v.P.v_trace
  | P.Status | P.Shutdown -> false

let span_json (s : Telemetry.span_record) =
  Json.Obj
    [
      ("name", Json.Str s.Telemetry.span_name);
      ("cat", Json.Str s.Telemetry.span_cat);
      ("dur_us", Json.Float s.Telemetry.span_dur);
      ("depth", Json.Int s.Telemetry.span_depth);
    ]

(* One request, on a worker domain: bound recorder memory (a daemon must
   not accumulate spans forever), run the handler inside a "serve.<op>"
   span, optionally capture the request's own spans for the response,
   and never let an exception escape to the worker loop.  The
   [serve.worker] chaos point fires here, under a per-job fault context,
   so an injected worker crash surfaces as a typed error response
   instead of a dead worker. *)
let handle t ~seq req =
  Telemetry.drop_local_events ();
  let run () =
    Resil.Fault.with_context
      ~key:("serve.worker/" ^ string_of_int seq)
      ~attempt:0
      (fun () ->
        Resil.Fault.point fp_worker;
        Telemetry.span ~cat:"serve" ("serve." ^ op_name req) (fun () ->
            match req with
            | P.Solve s -> handle_solve t s
            | P.Eval e -> handle_eval t e
            | P.Verify v -> handle_verify t v
            | P.Status | P.Shutdown ->
                (* handled inline by the IO loop; never queued *)
                bad_request "internal: request should not reach a worker"))
  in
  match
    if trace_wanted req && Telemetry.enabled () then
      let r, spans = Telemetry.with_capture run in
      (r, Some spans)
    else (run (), None)
  with
  | (typ, extra, _), captured ->
      let extra =
        match captured with
        | Some spans ->
            extra @ [ ("trace", Json.List (List.map span_json spans)) ]
        | None -> extra
      in
      (typ, extra)
  | exception Resil.Fault.Injected point ->
      Telemetry.incr c_faults_injected;
      ( "error",
        [
          ("code", Json.Str "injected");
          ("message", Json.Str ("fault injected at " ^ point));
        ] )
  | exception e ->
      ( "error",
        [
          ("code", Json.Str "internal");
          ("message", Json.Str (Printexc.to_string e));
        ] )

(* ---- worker loop (runs on Parallel.Pool workers) ---- *)

let push_reply t r =
  Mutex.protect t.rmu (fun () -> Queue.push r t.replies);
  (* Nudge the IO loop; a full pipe already has a wake-up pending. *)
  try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

(* Outcomes are counted per delivered response (on the IO loop), so N
   coalesced clients of one execution count as N completions — the
   counters describe traffic served, not CPU spent. *)
let count_typ t = function
  | "result" | "status" | "ok" ->
      Telemetry.incr c_completed;
      Mutex.protect t.smu (fun () -> t.n_completed <- t.n_completed + 1)
  | "degraded" ->
      Telemetry.incr c_degraded;
      Mutex.protect t.smu (fun () -> t.n_degraded <- t.n_degraded + 1)
  | _ ->
      Telemetry.incr c_errors;
      Mutex.protect t.smu (fun () -> t.n_errors <- t.n_errors + 1)

let rec worker_loop t =
  match Bqueue.take t.queue with
  | None -> ()
  | Some job ->
      Telemetry.observe h_queue_wait_us
        (int_of_float ((Unix.gettimeofday () *. 1e6) -. job.j_enq_us));
      let typ, extra = handle t ~seq:job.j_seq job.j_req in
      push_reply t
        {
          r_conn = job.j_conn;
          r_id = job.j_id;
          r_key = job.j_key;
          r_typ = typ;
          r_extra = extra;
        };
      worker_loop t

(* ---- IO loop (calling domain) ---- *)

let queue_out c s = Buffer.add_string c.out s

let close_conn t c =
  Hashtbl.remove t.conns c.cid;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let stop_accepting t =
  if t.listening then begin
    t.listening <- false;
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    match t.cfg.listen with
    | `Unix path -> ( try Sys.remove path with Sys_error _ -> ())
    | `Tcp _ -> ()
  end

let counters_snapshot t =
  Mutex.protect t.smu (fun () ->
      (t.n_received, t.n_completed, t.n_degraded, t.n_errors, t.n_overloaded))

let status_line t ~id =
  let cs = Cache.stats t.cache in
  let received, completed, degraded, errors, overloaded =
    counters_snapshot t
  in
  let queued = Bqueue.length t.queue in
  P.response ~id ~typ:"status"
    ~extra:
      [
        ("op", Json.Str "status");
        ( "result",
          Json.Obj
            [
              ("jobs", Json.Int t.cfg.jobs);
              ("queue_depth", Json.Int t.cfg.queue_depth);
              ("queued", Json.Int queued);
              ("in_flight", Json.Int (max 0 (t.pending - queued)));
              ("draining", Json.Bool t.draining);
              ( "cache",
                Json.Obj
                  [
                    ("size", Json.Int cs.Cache.size);
                    ("capacity", Json.Int cs.Cache.capacity);
                    ("hits", Json.Int cs.Cache.hits);
                    ("misses", Json.Int cs.Cache.misses);
                    ("evictions", Json.Int cs.Cache.evictions);
                  ] );
              ( "requests",
                Json.Obj
                  [
                    ("received", Json.Int received);
                    ("completed", Json.Int completed);
                    ("degraded", Json.Int degraded);
                    ("errors", Json.Int errors);
                    ("overloaded", Json.Int overloaded);
                  ] );
            ] );
      ]
    ()

let http_metrics_response () =
  let body = Telemetry.prometheus () in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let handle_line t c line =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if c.http || String.trim line = "" then ()
  else if (not c.saw_line) && String.length line >= 4 && String.sub line 0 4 = "GET "
  then begin
    c.http <- true;
    queue_out c (http_metrics_response ());
    c.close_after_flush <- true
  end
  else begin
    c.saw_line <- true;
    match P.parse line with
    | Error (id, msg) ->
        Telemetry.incr c_errors;
        Mutex.protect t.smu (fun () -> t.n_errors <- t.n_errors + 1);
        queue_out c
          (P.response ~id ~typ:"error"
             ~extra:
               [
                 ("code", Json.Str "parse");
                 ("message", Json.Str msg);
               ]
             ()
          ^ "\n")
    | Ok { P.id; req } -> (
        Telemetry.incr c_requests;
        Mutex.protect t.smu (fun () -> t.n_received <- t.n_received + 1);
        match req with
        | P.Status -> queue_out c (status_line t ~id ^ "\n")
        | P.Shutdown ->
            if t.draining then
              queue_out c
                (P.response ~id ~typ:"ok"
                   ~extra:
                     [
                       ("op", Json.Str "shutdown");
                       ("message", Json.Str "already draining");
                     ]
                   ()
                ^ "\n")
            else begin
              t.draining <- true;
              t.shutdown_reply <- Some (c.cid, id);
              stop_accepting t
            end
        | P.Solve _ | P.Eval _ | P.Verify _ ->
            if t.draining then begin
              Telemetry.incr c_errors;
              Mutex.protect t.smu (fun () -> t.n_errors <- t.n_errors + 1);
              queue_out c
                (P.response ~id ~typ:"error"
                   ~extra:
                     [
                       ("code", Json.Str "shutting_down");
                       ("message", Json.Str "server is draining");
                     ]
                   ()
                ^ "\n")
            end
            else begin
              (* Single-flight key: the solve cache key.  Traced requests
                 are excluded — their reply embeds spans from their own
                 execution, which a coalesced copy would not have. *)
              let sf_key =
                match req with
                | P.Solve s when not s.P.trace ->
                    Some
                      Resil.Fingerprint.(
                        hash64 (render (P.solve_cache_fields s)))
                | _ -> None
              in
              match
                Option.bind sf_key (fun k ->
                    Option.map (fun ws -> (k, ws)) (Hashtbl.find_opt t.inflight k))
              with
              | Some (_, waiters) ->
                  (* Identical solve already running: attach to it instead
                     of consuming a queue slot and a worker. *)
                  Telemetry.incr c_sf_coalesced;
                  waiters := { w_conn = c.cid; w_id = id } :: !waiters
              | None -> (
                  let job =
                    {
                      j_conn = c.cid;
                      j_id = id;
                      j_req = req;
                      j_key = sf_key;
                      j_seq = t.next_seq;
                      j_enq_us = Unix.gettimeofday () *. 1e6;
                    }
                  in
                  match Bqueue.try_push t.queue job with
                  | `Ok ->
                      t.next_seq <- t.next_seq + 1;
                      t.pending <- t.pending + 1;
                      Option.iter
                        (fun k ->
                          Telemetry.incr c_sf_leaders;
                          Hashtbl.replace t.inflight k (ref []))
                        sf_key
                  | `Full | `Closed ->
                  Telemetry.incr c_overloaded;
                  Mutex.protect t.smu (fun () ->
                      t.n_overloaded <- t.n_overloaded + 1);
                  queue_out c
                    (P.response ~id ~typ:"overloaded"
                       ~extra:
                         [
                           ("queue_depth", Json.Int t.cfg.queue_depth);
                           ( "message",
                             Json.Str
                               "admission queue is full; retry with backoff"
                           );
                         ]
                       ()
                    ^ "\n"))
            end)
  end

(* Split complete lines out of the connection's input buffer; the tail
   (a partial line) stays buffered. *)
let process_input t c =
  let s = Buffer.contents c.inbuf in
  let n = String.length s in
  let start = ref 0 in
  (try
     while !start < n do
       match String.index_from s !start '\n' with
       | exception Not_found -> raise Exit
       | i ->
           handle_line t c (String.sub s !start (i - !start));
           start := i + 1
     done
   with Exit -> ());
  if !start > 0 then begin
    let rest = String.sub s !start (n - !start) in
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf rest
  end

let read_conn t c =
  match Resil.Fault.point fp_read with
  | exception Resil.Fault.Injected _ ->
      (* Injected read failure: treat it like ECONNRESET. *)
      Telemetry.incr c_faults_injected;
      close_conn t c
  | () ->
  let buf = Bytes.create 65536 in
  let closed = ref false in
  (try
     let continue = ref true in
     while !continue do
       match Unix.read c.fd buf 0 (Bytes.length buf) with
       | 0 ->
           closed := true;
           continue := false
       | n -> Buffer.add_subbytes c.inbuf buf 0 n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
           continue := false
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
           closed := true;
           continue := false
     done
   with Unix.Unix_error _ -> closed := true);
  process_input t c;
  if !closed then close_conn t c

let flush_conn t c =
  let len = Buffer.length c.out - c.out_pos in
  if len > 0 then begin
    let bytes = Buffer.to_bytes c.out in
    match
      Resil.Fault.point fp_write;
      Unix.write c.fd bytes c.out_pos len
    with
    | n ->
        c.out_pos <- c.out_pos + n;
        if c.out_pos >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_pos <- 0;
          if c.close_after_flush then close_conn t c
        end
    | exception Resil.Fault.Injected _ ->
        (* Injected write failure: the peer sees a cut connection and
           must retry its request. *)
        Telemetry.incr c_faults_injected;
        close_conn t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t c
  end
  else if c.close_after_flush then close_conn t c

let accept_all t =
  let continue = ref true in
  while !continue && t.listening do
    match Unix.accept t.lsock with
    | fd, _ -> (
        match Resil.Fault.point fp_accept with
        | exception Resil.Fault.Injected _ ->
            (* Injected accept failure: drop the connection on the floor,
               as a listen-queue overflow would.  The client's retry loop
               is what recovers. *)
            Telemetry.incr c_faults_injected;
            (try Unix.close fd with Unix.Unix_error _ -> ())
        | () ->
            Unix.set_nonblock fd;
            let cid = t.next_cid in
            t.next_cid <- cid + 1;
            Hashtbl.replace t.conns cid
              {
                fd;
                cid;
                inbuf = Buffer.create 1024;
                out = Buffer.create 1024;
                out_pos = 0;
                close_after_flush = false;
                http = false;
                saw_line = false;
              })
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let drain_wake t =
  let buf = Bytes.create 256 in
  let continue = ref true in
  while !continue do
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> continue := false
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let drain_replies t =
  let rs =
    Mutex.protect t.rmu (fun () ->
        let acc = Queue.fold (fun acc r -> r :: acc) [] t.replies in
        Queue.clear t.replies;
        List.rev acc)
  in
  List.iter
    (fun r ->
      t.pending <- t.pending - 1;
      (* Detach any coalesced waiters before delivery so a request that
         arrives after this point starts a fresh flight (likely a cache
         hit) rather than attaching to a finished one. *)
      let waiters =
        match r.r_key with
        | None -> []
        | Some k -> (
            match Hashtbl.find_opt t.inflight k with
            | Some ws ->
                Hashtbl.remove t.inflight k;
                List.rev !ws
            | None -> [])
      in
      let deliver conn_id id =
        count_typ t r.r_typ;
        match Hashtbl.find_opt t.conns conn_id with
        | Some c when not c.close_after_flush ->
            queue_out c (P.response ~id ~typ:r.r_typ ~extra:r.r_extra () ^ "\n")
        | _ -> () (* client went away; the work is simply dropped *)
      in
      deliver r.r_conn r.r_id;
      List.iter (fun w -> deliver w.w_conn w.w_id) waiters)
    rs

let maybe_finish_drain t =
  if t.phase = Running && t.draining && t.pending = 0 then begin
    (match t.shutdown_reply with
    | Some (cid, id) -> (
        t.shutdown_reply <- None;
        match Hashtbl.find_opt t.conns cid with
        | Some c ->
            queue_out c (P.response ~id ~typ:"ok" ~extra:[ ("op", Json.Str "shutdown") ] () ^ "\n")
        | None -> ())
    | None -> ());
    t.phase <- Flushing;
    t.flush_deadline <- Unix.gettimeofday () +. 5.0
  end

let create cfg =
  let cfg = { cfg with jobs = max 1 cfg.jobs } in
  Telemetry.enable ();
  let lsock =
    match cfg.listen with
    | `Unix path ->
        if Sys.file_exists path then (
          (* A stale socket file from a dead server blocks bind; a live
             file that is not a socket is somebody else's and an error. *)
          match (Unix.stat path).Unix.st_kind with
          | Unix.S_SOCK -> Sys.remove path
          | _ ->
              invalid_arg
                (Printf.sprintf "Server.create: %s exists and is not a socket"
                   path));
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_UNIX path);
        s
    | `Tcp (host, port) ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt s Unix.SO_REUSEADDR true;
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        s
  in
  Unix.listen lsock 64;
  Unix.set_nonblock lsock;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let cache = Cache.create ~capacity:cfg.cache_size in
  let log, replay =
    match cfg.cache_file with
    | None -> (None, None)
    | Some path ->
        let log, replay =
          Cache_log.open_log ~path ~config_hash:(config_hash cfg)
            ~compact_bytes:cfg.cache_compact_bytes ()
        in
        (* Replay in file order so last-written wins on recency too. *)
        List.iter
          (fun (k, v) -> Telemetry.add c_cache_evictions (Cache.put cache k v))
          replay.Cache_log.entries;
        Telemetry.add c_cache_replayed replay.Cache_log.replayed;
        (Some log, Some replay)
  in
  {
    cfg;
    lsock;
    queue = Bqueue.create ~capacity:cfg.queue_depth;
    cache;
    log;
    replay;
    inflight = Hashtbl.create 16;
    replies = Queue.create ();
    rmu = Mutex.create ();
    wake_r;
    wake_w;
    conns = Hashtbl.create 16;
    next_cid = 0;
    next_seq = 0;
    pending = 0;
    listening = true;
    draining = false;
    shutdown_reply = None;
    phase = Running;
    flush_deadline = 0.0;
    smu = Mutex.create ();
    n_received = 0;
    n_completed = 0;
    n_degraded = 0;
    n_errors = 0;
    n_overloaded = 0;
  }

let serve t =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let pool_domain =
    (* run_isolated: a worker loop that dies (e.g. a fault injected at
       task start) must neither take down its siblings nor re-raise into
       this domain's join at shutdown. *)
    Domain.spawn (fun () ->
        Parallel.Pool.with_pool ~jobs:t.cfg.jobs (fun pool ->
            ignore
              (Parallel.Pool.run_isolated pool ~n:t.cfg.jobs (fun _ ->
                   worker_loop t))))
  in
  let finished = ref false in
  (* Chaos points in the IO paths (accept/read/write) only arm inside a
     fault context; the key is fixed, so a seeded run replays the same
     injection pattern. *)
  Resil.Fault.with_context ~key:"serve.io" ~attempt:0 @@ fun () ->
  while not !finished do
    let conn_list = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    let reads =
      t.wake_r
      :: ((if t.listening then [ t.lsock ] else [])
         @ List.map (fun c -> c.fd) conn_list)
    in
    let writes =
      List.filter_map
        (fun c ->
          if Buffer.length c.out - c.out_pos > 0 || c.close_after_flush then
            Some c.fd
          else None)
        conn_list
    in
    (match Unix.select reads writes [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rs, ws, _ ->
        if t.listening && List.memq t.lsock rs then accept_all t;
        if List.memq t.wake_r rs then drain_wake t;
        drain_replies t;
        List.iter
          (fun c ->
            if Hashtbl.mem t.conns c.cid && List.memq c.fd rs then
              read_conn t c)
          conn_list;
        drain_replies t;
        maybe_finish_drain t;
        List.iter
          (fun c ->
            if Hashtbl.mem t.conns c.cid && List.memq c.fd ws then
              flush_conn t c)
          conn_list);
    (* Also flush anything queued this iteration on idle sockets; a
       writable socket with a short response accepts the write at once. *)
    Hashtbl.iter
      (fun _ c ->
        if Buffer.length c.out - c.out_pos > 0 then flush_conn t c)
      (Hashtbl.copy t.conns);
    if t.phase = Flushing then begin
      let unflushed =
        Hashtbl.fold
          (fun _ c acc -> acc + (Buffer.length c.out - c.out_pos))
          t.conns 0
      in
      if unflushed = 0 || Unix.gettimeofday () > t.flush_deadline then
        finished := true
    end
  done;
  Bqueue.close t.queue;
  Domain.join pool_domain;
  Option.iter Cache_log.close t.log;
  (match t.cfg.metrics_path with
  | Some path -> Telemetry.write_metrics path
  | None -> ());
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  stop_accepting t;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let replay_info t = t.replay
