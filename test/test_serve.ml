(* The verification service: supervisor state machine (deterministic, no
   forks, fake clock), chaos injector determinism, wire codec round-trips,
   and crash-safe framed run log recovery.  The real-fork worker integration
   test lives in test_serve_fork.ml: OCaml 5 forbids Unix.fork after any
   Domain.spawn, and this binary's engine suites are multi-domain. *)

module Supervisor = Ids_serve.Supervisor
module Chaos = Ids_serve.Chaos
module Request = Ids_serve.Request
module Runlog = Ids_engine.Runlog
module Fault = Ids_network.Fault

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A compact action rendering so transition tests read as scripts. *)
let action_to_string = function
  | Supervisor.Assign { worker; req; attempt; _ } ->
    Printf.sprintf "assign(%d,%s,#%d)" worker req attempt
  | Supervisor.Spawn w -> Printf.sprintf "spawn(%d)" w
  | Supervisor.Kill { worker; req } -> Printf.sprintf "kill(%d,%s)" worker req
  | Supervisor.Complete { req; attempts } -> Printf.sprintf "complete(%s,#%d)" req attempts
  | Supervisor.Reject { req; reject } ->
    let r =
      match reject with
      | Request.Overloaded -> "overloaded"
      | Request.Draining -> "draining"
      | Request.Bad_request _ -> "bad_request"
      | Request.Failed _ -> "failed"
    in
    Printf.sprintf "reject(%s,%s)" req r
  | Supervisor.Stopped -> "stopped"

let actions = Alcotest.(check (list string))
let step t ~now ev = List.map action_to_string (Supervisor.step t ~now ev)

let cfg ?(workers = 2) ?(queue_bound = 8) ?(max_attempts = 3) ?(restart_budget = 4)
    ?(deadline = 10.) () =
  { Supervisor.workers;
    queue_bound;
    max_attempts;
    restart_budget;
    backoff_base = 0.05;
    backoff_mult = 2.0;
    backoff_cap = 1.0;
    deadline
  }

(* --- supervisor: pure transitions ------------------------------------------------- *)

let test_backoff_schedule () =
  let c = cfg () in
  let delays = List.map (fun f -> Supervisor.backoff_delay c ~failures:f) [ 1; 2; 3; 4; 5; 6 ] in
  check
    Alcotest.(list (float 1e-9))
    "exponential, capped" [ 0.05; 0.1; 0.2; 0.4; 0.8; 1.0 ] delays;
  checkb "validate default" true (Result.is_ok (Supervisor.validate Supervisor.default));
  checkb "workers=0 invalid" true
    (Result.is_error (Supervisor.validate { c with Supervisor.workers = 0 }))

let test_dispatch_and_shed () =
  let t = Supervisor.create (cfg ~workers:1 ~queue_bound:1 ()) in
  actions "a runs on worker 0" [ "assign(0,a,#1)" ] (step t ~now:0. (Supervisor.Submit "a"));
  actions "b queues" [] (step t ~now:0. (Supervisor.Submit "b"));
  actions "c sheds at the bound" [ "reject(c,overloaded)" ] (step t ~now:0. (Supervisor.Submit "c"));
  checki "queue depth" 1 (Supervisor.queue_depth t);
  actions "a completes, b dispatched" [ "complete(a,#1)"; "assign(0,b,#1)" ]
    (step t ~now:1. (Supervisor.Done 0));
  let c = Supervisor.counters t in
  checki "accepted" 2 c.Supervisor.accepted;
  checki "shed" 1 c.Supervisor.shed

let test_crash_backoff_retry () =
  let t = Supervisor.create (cfg ~workers:1 ()) in
  ignore (Supervisor.step t ~now:0. (Supervisor.Submit "a"));
  (* Crash schedules the retry 50ms out and respawns the worker. *)
  actions "crash -> spawn only" [ "spawn(0)" ] (step t ~now:1. (Supervisor.Crashed 0));
  actions "replacement up, retry not yet eligible" [] (step t ~now:1.01 (Supervisor.Spawned 0));
  actions "still backing off" [] (step t ~now:1.049 Supervisor.Tick);
  actions "retry fires after the backoff" [ "assign(0,a,#2)" ] (step t ~now:1.05 Supervisor.Tick);
  let c = Supervisor.counters t in
  checki "retried" 1 c.Supervisor.retried;
  checki "crashes" 1 c.Supervisor.worker_crashes;
  checki "restarts" 1 c.Supervisor.restarts;
  (* Second crash: backoff doubles. *)
  ignore (Supervisor.step t ~now:2. (Supervisor.Crashed 0));
  ignore (Supervisor.step t ~now:2. (Supervisor.Spawned 0));
  actions "2nd backoff is 100ms" [] (step t ~now:2.09 Supervisor.Tick);
  actions "2nd retry" [ "assign(0,a,#3)" ] (step t ~now:2.1 Supervisor.Tick);
  (* Third crash exhausts max_attempts=3. *)
  actions "gave up" [ "reject(a,failed)"; "spawn(0)" ] (step t ~now:3. (Supervisor.Crashed 0))

let test_restart_budget_exhaustion () =
  let t = Supervisor.create (cfg ~workers:1 ~restart_budget:1 ~max_attempts:10 ()) in
  ignore (Supervisor.step t ~now:0. (Supervisor.Submit "a"));
  ignore (Supervisor.step t ~now:0. (Supervisor.Submit "b"));
  actions "first crash spends the budget" [ "spawn(0)" ] (step t ~now:1. (Supervisor.Crashed 0));
  (* The replacement picks up b (a's retry is still backing off). *)
  actions "b dispatched to the replacement" [ "assign(0,b,#1)" ]
    (step t ~now:1. (Supervisor.Spawned 0));
  (* Second crash: budget gone -> slot dies, no workers left, everything
     queued (a's retry and b's retry) is failed. *)
  let acts = step t ~now:2. (Supervisor.Crashed 0) in
  checkb "no spawn past the budget" true (not (List.mem "spawn(0)" acts));
  checkb "queued b failed" true (List.mem "reject(b,failed)" acts);
  checki "alive" 0 (Supervisor.alive t);
  actions "submits refused with no pool" [ "reject(c,failed)" ]
    (step t ~now:3. (Supervisor.Submit "c"))

let test_deadline_kill_then_retry () =
  let t = Supervisor.create (cfg ~workers:1 ~deadline:10. ()) in
  actions "assigned" [ "assign(0,a,#1)" ] (step t ~now:0. (Supervisor.Submit "a"));
  actions "before the deadline" [] (step t ~now:9.99 Supervisor.Tick);
  actions "deadline kill" [ "kill(0,a)" ] (step t ~now:10. Supervisor.Tick);
  checki "timed_out" 1 (Supervisor.counters t).Supervisor.timed_out;
  (* The SIGKILL lands: retry is scheduled, the respawn is free (no restart
     budget spent — deadline kills are policy, not worker failure). *)
  actions "death observed" [ "spawn(0)" ] (step t ~now:10.01 (Supervisor.Crashed 0));
  checki "restarts unspent" 0 (Supervisor.counters t).Supervisor.restarts;
  ignore (Supervisor.step t ~now:10.01 (Supervisor.Spawned 0));
  actions "killed attempt retries after backoff" [ "assign(0,a,#2)" ]
    (step t ~now:10.06 Supervisor.Tick);
  (* Race: the response outruns the SIGKILL -> the result is kept and the
     death that follows carries no request. *)
  let t2 = Supervisor.create (cfg ~workers:1 ~deadline:10. ()) in
  ignore (Supervisor.step t2 ~now:0. (Supervisor.Submit "r"));
  ignore (step t2 ~now:10. Supervisor.Tick);
  actions "response wins the race" [ "complete(r,#1)" ] (step t2 ~now:10.005 (Supervisor.Done 0));
  actions "expected death, free respawn" [ "spawn(0)" ] (step t2 ~now:10.01 (Supervisor.Crashed 0));
  checki "no crash counted for the kill" 0 (Supervisor.counters t2).Supervisor.worker_crashes

let test_drain_semantics () =
  (* Build the state drain must discriminate: [b] running on the only
     worker, [a]'s retry backing off in the queue (in-flight work), and [c]
     a queued first attempt (refusable). *)
  let t = Supervisor.create (cfg ~workers:1 ()) in
  ignore (Supervisor.step t ~now:0. (Supervisor.Submit "a"));
  ignore (Supervisor.step t ~now:0. (Supervisor.Submit "b"));
  ignore (Supervisor.step t ~now:0. (Supervisor.Crashed 0));
  (* Queue: [b#1; a#2 (eligible 0.05)]; the replacement dispatches b. *)
  actions "replacement runs b" [ "assign(0,b,#1)" ] (step t ~now:0. (Supervisor.Spawned 0));
  ignore (Supervisor.step t ~now:0. (Supervisor.Submit "c"));
  actions "drain rejects queued first attempts only" [ "reject(c,draining)" ]
    (step t ~now:0.01 Supervisor.Drain);
  checkb "draining" true (Supervisor.is_draining t);
  actions "submits refused while draining" [ "reject(late,draining)" ]
    (step t ~now:0.02 (Supervisor.Submit "late"));
  actions "in-flight b completes, a's retry not yet eligible" [ "complete(b,#1)" ]
    (step t ~now:0.03 (Supervisor.Done 0));
  (* The pending retry is in-flight work: it still runs to completion. *)
  actions "retry dispatched during drain" [ "assign(0,a,#2)" ] (step t ~now:0.05 Supervisor.Tick);
  actions "completion stops the drained pool" [ "complete(a,#2)"; "stopped" ]
    (step t ~now:0.06 (Supervisor.Done 0));
  checkb "stopped" true (Supervisor.is_stopped t);
  actions "events after stop are ignored" [] (step t ~now:1. (Supervisor.Submit "x"))

let test_next_wakeup () =
  let t = Supervisor.create (cfg ~workers:1 ~deadline:10. ()) in
  checkb "idle pool: nothing to wake for" true (Supervisor.next_wakeup t ~now:0. = None);
  ignore (Supervisor.step t ~now:0. (Supervisor.Submit "a"));
  check (Alcotest.option (Alcotest.float 1e-9)) "deadline drives the wakeup" (Some 7.)
    (Supervisor.next_wakeup t ~now:3.);
  ignore (Supervisor.step t ~now:5. (Supervisor.Crashed 0));
  ignore (Supervisor.step t ~now:5. (Supervisor.Spawned 0));
  check (Alcotest.option (Alcotest.float 1e-9)) "backoff eligibility drives the wakeup"
    (Some 0.05)
    (Supervisor.next_wakeup t ~now:5.)

(* --- chaos injector --------------------------------------------------------------- *)

let test_chaos () =
  let s = Chaos.make ~kill:0.3 ~seed:42 () in
  (* Pure in (seed, id, attempt): same decision every time. *)
  for attempt = 1 to 5 do
    let a = Chaos.kills s ~id:"req-1" ~attempt in
    let b = Chaos.kills s ~id:"req-1" ~attempt in
    checkb "kill decision is pure" a b
  done;
  (* The empirical rate over many ids tracks the spec's rate. *)
  let kills = ref 0 in
  let n = 2000 in
  for i = 1 to n do
    if Chaos.kills s ~id:(Printf.sprintf "q%04d" i) ~attempt:1 then incr kills
  done;
  let rate = float_of_int !kills /. float_of_int n in
  checkb (Printf.sprintf "empirical rate %.3f near 0.3" rate) true (rate > 0.25 && rate < 0.35);
  (* Different seeds decorrelate; the same seed reproduces. *)
  let s2 = Chaos.make ~kill:0.3 ~seed:43 () in
  let differs = ref false in
  for i = 1 to 100 do
    let id = Printf.sprintf "q%04d" i in
    if Chaos.kills s ~id ~attempt:1 <> Chaos.kills s2 ~id ~attempt:1 then differs := true
  done;
  checkb "seed changes the schedule" true !differs;
  checkb "none never kills" false (Chaos.kills Chaos.none ~id:"x" ~attempt:1);
  (* Codec. *)
  check Alcotest.string "to_string" "kill=0.3,seed=42" (Chaos.to_string s);
  checkb "round-trip" true (Chaos.of_string (Chaos.to_string s) = s);
  check Alcotest.string "none label" "none" (Chaos.to_string Chaos.none);
  checkb "bad rate rejected" true
    (match Chaos.of_string "kill=1.5" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- wire codec ------------------------------------------------------------------- *)

let test_request_codec () =
  let req =
    Request.make_estimate ~fault:(Fault.drop_only 0.1) ~kill_attempt:2 ~id:"r7"
      ~protocol:"sym_dmam" ~strategy:"honest" ~trials:12 ()
  in
  (match Request.of_line (Request.to_json ~attempt:3 req) with
  | Error e -> Alcotest.failf "estimate did not round-trip: %s" e
  | Ok (r, attempt) ->
    checki "attempt carried" 3 attempt;
    checkb "request preserved" true (r = req));
  (match Request.of_line {|{"op":"estimate","id":"x","protocol":"p","strategy":"s","trials":4}|} with
  | Ok (r, 1) ->
    checkb "fault defaults to none" true
      (match r.Request.op with
      | Request.Estimate { fault; kill_attempt; _ } -> Fault.is_none fault && kill_attempt = None
      | _ -> false)
  | Ok _ -> Alcotest.fail "attempt should default to 1"
  | Error e -> Alcotest.failf "minimal estimate rejected: %s" e);
  List.iter
    (fun (label, line) ->
      checkb label true (Result.is_error (Request.of_line line)))
    [ ("garbage", "nope");
      ("unknown op", {|{"op":"evaluate","id":"x"}|});
      ("empty id", {|{"op":"ping","id":""}|});
      ("zero trials", {|{"op":"estimate","id":"x","protocol":"p","strategy":"s","trials":0}|});
      ("bad fault", {|{"op":"estimate","id":"x","protocol":"p","strategy":"s","trials":1,"fault":"warp=1"}|})
    ];
  (* Responses. *)
  let roundtrip resp =
    match Request.response_of_line (Request.response_to_json resp) with
    | Ok r -> checkb "response round-trip" true (r = resp)
    | Error e -> Alcotest.failf "response did not round-trip: %s" e
  in
  roundtrip
    (Request.Estimated
       { id = "a"; attempts = 2; record = {|{"schema_version":3}|}; telemetry = None });
  roundtrip
    (Request.Stats_reply { id = "s"; stats = [ ("accepted", 4); ("shed", 0) ]; body = None });
  roundtrip (Request.Pong { id = "p" });
  List.iter
    (fun reject -> roundtrip (Request.Rejected { id = "r"; reject }))
    [ Request.Overloaded; Request.Draining; Request.Bad_request "why"; Request.Failed "why" ]

(* --- crash-safe framed log -------------------------------------------------------- *)

let record_line i =
  Printf.sprintf
    {|{"schema_version":3,"protocol":"sym_dmam","n":8,"prover":"honest","trials":%d,"accepts":%d,"rate":1,"ci_low":0.9,"ci_high":1,"mean_bits":76,"max_bits":76,"domains":1,"stopped_early":false}|}
    (i + 1) (i + 1)

let with_tmp f =
  let path = Filename.temp_file "ids_serve_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_framed path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (Runlog.Framed.frame l)) lines;
  close_out oc

let test_framed_roundtrip () =
  with_tmp (fun path ->
      (match Runlog.Framed.create path with
      | Error e -> Alcotest.failf "create: %s" e
      | Ok w ->
        checki "fresh file: nothing truncated" 0 (Runlog.Framed.truncated w);
        for i = 0 to 4 do
          Runlog.Framed.write w (record_line i)
        done;
        Runlog.Framed.close w);
      match Runlog.read_file_lenient path with
      | Error e -> Alcotest.failf "read: %s" e
      | Ok { Runlog.records; tail; _ } ->
        checki "all records back" 5 (List.length records);
        checkb "clean tail" true (tail = None);
        checkb "trials preserved in order" true
          (List.mapi (fun i _ -> i + 1) records
          = List.map (fun (r : Runlog.record) -> r.Runlog.trials) records))

(* Every way a kill -9 can tear the final frame: mid-header, mid-payload,
   missing terminator. The reader must keep the good prefix and report the
   torn tail; the writer must truncate it on the next open. *)
let test_framed_torn_tail_recovery () =
  let good = [ record_line 0; record_line 1 ] in
  let torn_tails =
    [ ("mid-magic", "=ID");
      ("mid-header", "=IDS 12");
      ("header without newline", "=IDS 1234");
      ("mid-payload", "=IDS 4096\n{\"schema_version\":3,\"proto");
      ("missing terminator", "=IDS 5\nabcde")
    ]
  in
  List.iter
    (fun (label, tear) ->
      with_tmp (fun path ->
          write_framed path good;
          let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
          output_string oc tear;
          close_out oc;
          (* Lenient read: good prefix + structured torn tail. *)
          (match Runlog.read_file_lenient path with
          | Error e -> Alcotest.failf "%s: read: %s" label e
          | Ok { Runlog.records; tail; good_end } ->
            checki (label ^ ": good prefix") 2 (List.length records);
            checkb (label ^ ": torn tail reported") true
              (match tail with Some (Runlog.Torn_tail _) -> true | _ -> false);
            let full = String.length (Runlog.Framed.frame (record_line 0))
                       + String.length (Runlog.Framed.frame (record_line 1)) in
            checki (label ^ ": good_end at the record boundary") full good_end);
          (* Strict read refuses the file outright. *)
          checkb (label ^ ": strict read fails") true (Result.is_error (Runlog.read_file path));
          (* Recovery truncates exactly the tear. *)
          (match Runlog.Framed.create path with
          | Error e -> Alcotest.failf "%s: recovery: %s" label e
          | Ok w ->
            checki (label ^ ": recovery removed the tear") (String.length tear)
              (Runlog.Framed.truncated w);
            (* The log is append-able again after recovery. *)
            Runlog.Framed.write w (record_line 2);
            Runlog.Framed.close w);
          match Runlog.read_file_lenient path with
          | Error e -> Alcotest.failf "%s: post-recovery read: %s" label e
          | Ok { Runlog.records; tail; _ } ->
            checki (label ^ ": records after recovery") 3 (List.length records);
            checkb (label ^ ": clean after recovery") true (tail = None)))
    torn_tails

let test_framed_bad_line_vs_torn () =
  (* An intact frame whose payload doesn't decode is corruption (Bad_line),
     not a torn append: recovery must NOT truncate it away silently. *)
  with_tmp (fun path ->
      write_framed path [ record_line 0; "this is not a record"; record_line 2 ];
      (match Runlog.read_file_lenient path with
      | Error e -> Alcotest.failf "read: %s" e
      | Ok { Runlog.records; tail; _ } ->
        checki "prefix before the bad record" 1 (List.length records);
        checkb "bad line reported" true
          (match tail with Some (Runlog.Bad_line _) -> true | _ -> false));
      match Runlog.Framed.create path with
      | Error e -> Alcotest.failf "reopen: %s" e
      | Ok w ->
        checki "recovery keeps intact frames" 0 (Runlog.Framed.truncated w);
        Runlog.Framed.close w)

(* Length headers are untrusted bytes: one too long for an [int] or one
   claiming more than the file holds must read as a torn tail, never raise
   out of [create]; and a batch cut at any byte must recover to the last
   whole frame. *)
let test_framed_hostile_headers () =
  let good = [ record_line 0; record_line 1 ] in
  let good_len = String.concat "" (List.map Runlog.Framed.frame good) |> String.length in
  let tails =
    [ ("20-digit length", "=IDS 12345678901234567890\n{}\n");
      ("max_int length", Printf.sprintf "=IDS %d\n{}\n" max_int);
      ("max_int - 1 length", Printf.sprintf "=IDS %d\n{}\n" (max_int - 1))
    ]
  in
  List.iter
    (fun (label, tail) ->
      with_tmp (fun path ->
          write_framed path good;
          let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
          output_string oc tail;
          close_out oc;
          (match Runlog.read_file_lenient path with
          | Error e -> Alcotest.failf "%s: read: %s" label e
          | Ok { Runlog.records; tail; good_end } ->
            checki (label ^ ": good prefix") 2 (List.length records);
            checki (label ^ ": good_end") good_len good_end;
            checkb (label ^ ": torn tail reported") true
              (match tail with Some (Runlog.Torn_tail _) -> true | _ -> false));
          (match Runlog.Framed.create path with
          | Error e -> Alcotest.failf "%s: create: %s" label e
          | Ok w ->
            checki (label ^ ": truncated to the last whole frame") (String.length tail)
              (Runlog.Framed.truncated w);
            Runlog.Framed.close w);
          checki (label ^ ": file size after recovery") good_len (Unix.stat path).Unix.st_size))
    tails;
  (* A two-frame batch cut at every byte recovers to its whole frames. *)
  let batch = String.concat "" (List.map Runlog.Framed.frame [ record_line 2; record_line 3 ]) in
  let first_frame = String.length (Runlog.Framed.frame (record_line 2)) in
  for cut = 0 to String.length batch do
    with_tmp (fun path ->
        let oc = open_out_bin path in
        output_string oc (String.sub batch 0 cut);
        close_out oc;
        match Runlog.Framed.create path with
        | Error e -> Alcotest.failf "cut %d: create: %s" cut e
        | Ok w ->
          Runlog.Framed.close w;
          let want = if cut = String.length batch then 2 else if cut >= first_frame then 1 else 0 in
          match Runlog.read_file path with
          | Ok records -> checki (Printf.sprintf "cut %d: whole frames kept" cut) want (List.length records)
          | Error e -> Alcotest.failf "cut %d: not clean after recovery: %s" cut e)
  done

let file_bytes path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let with_writer path f =
  match Runlog.Framed.create path with
  | Error e -> Alcotest.failf "create: %s" e
  | Ok w -> Fun.protect ~finally:(fun () -> Runlog.Framed.close w) (fun () -> f w)

let test_framed_write_batch () =
  with_tmp (fun path ->
      with_writer path (fun w -> Runlog.Framed.write_batch w []);
      checki "empty batch writes nothing" 0 (String.length (file_bytes path)));
  let payloads = List.init 5 record_line in
  with_tmp (fun path ->
      with_writer path (fun w ->
          Runlog.Framed.write_batch w [ List.hd payloads ];
          Runlog.Framed.write_batch w (List.tl payloads));
      match Runlog.read_file path with
      | Error e -> Alcotest.failf "read: %s" e
      | Ok records ->
        checkb "k payloads round-trip in order" true
          (List.map (fun (r : Runlog.record) -> r.Runlog.trials) records = [ 1; 2; 3; 4; 5 ]));
  with_tmp (fun single ->
      with_tmp (fun batch ->
          with_writer single (fun w -> List.iter (Runlog.Framed.write w) payloads);
          with_writer batch (fun w -> List.iter (fun p -> Runlog.Framed.write_batch w [ p ]) payloads);
          check Alcotest.string "write = one-element batch, byte for byte" (file_bytes single)
            (file_bytes batch);
          check Alcotest.string "bytes are the concatenated frames"
            (String.concat "" (List.map Runlog.Framed.frame payloads))
            (file_bytes batch)))

(* Socket input is untrusted: nesting past the parser's depth limit is an
   error, not unbounded recursion; the limit itself still parses. *)
let test_json_depth_limit () =
  let nest d = String.make d '[' ^ String.make d ']' in
  let module Json = Ids_obs.Json in
  checkb "depth limit parses" true (Result.is_ok (Json.parse (nest Json.max_depth)));
  checkb "one past the limit is an error" true
    (Result.is_error (Json.parse (nest (Json.max_depth + 1))));
  checkb "an unterminated deep document is an error" true
    (Result.is_error (Json.parse (String.make 1_000_000 '[')));
  checkb "deep objects are an error" true
    (Result.is_error (Json.parse (String.concat "" (List.init 1000 (fun _ -> {|{"a":|})))));
  checkb "deep request line is a codec error" true
    (Result.is_error (Request.of_line ({|{"op":"ping","id":|} ^ nest 100_000 ^ "}")))

(* --- BENCH_serve.json shape ------------------------------------------------------- *)

let test_bench_serve_shape () =
  (* The dune test stanza declares the dependency, which materializes the
     committed artifact one level above the runtest cwd; a `dune exec` from
     the repo root sees the source file directly. *)
  let path =
    match List.find_opt Sys.file_exists [ "../BENCH_serve.json"; "BENCH_serve.json" ] with
    | Some p -> p
    | None -> Alcotest.fail "BENCH_serve.json not committed"
  in
  begin
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Ids_obs.Json.parse s with
    | Error e -> Alcotest.failf "BENCH_serve.json does not parse: %s" e
    | Ok j ->
      let mem k = Ids_obs.Json.member k j in
      let int_at k =
        match Option.bind (mem k) Ids_obs.Json.to_int with
        | Some v -> v
        | None -> Alcotest.failf "BENCH_serve.json: missing int %S" k
      in
      checki "schema_version" 1 (int_at "schema_version");
      List.iter
        (fun k ->
          if mem k = None then Alcotest.failf "BENCH_serve.json: missing %S" k)
        [ "mode"; "chaos"; "requests"; "availability"; "bit_identical"; "throughput_rps";
          "latency_ms"; "recovery_ms"; "supervisor"; "shed_burst"; "log" ];
      let sub name k =
        match Option.bind (mem name) (Ids_obs.Json.member k) with
        | Some v -> v
        | None -> Alcotest.failf "BENCH_serve.json: missing %s.%s" name k
      in
      (* The committed artifact must witness the acceptance criteria:
         every accepted request completed, sheds happened at the bound,
         bit-identity held, and the torn-tail drill recovered. *)
      (match (Ids_obs.Json.to_int (sub "requests" "sent"), Ids_obs.Json.to_int (sub "requests" "completed")) with
      | Some sent, Some completed ->
        checkb "availability 100%" true (sent > 0 && sent = completed)
      | _ -> Alcotest.fail "BENCH_serve.json: requests.sent/completed not ints");
      (match Ids_obs.Json.to_int (sub "shed_burst" "shed") with
      | Some shed -> checkb "burst shed something" true (shed > 0)
      | None -> Alcotest.fail "BENCH_serve.json: shed_burst.shed not an int");
      checkb "bit_identical" true (mem "bit_identical" = Some (Ids_obs.Json.Bool true));
      checkb "torn tail recovered" true
        (Option.bind (mem "log") (Ids_obs.Json.member "torn_tail_recovered")
        = Some (Ids_obs.Json.Bool true))
  end

(* The client's one read buffer must carry a partial line across reads:
   a line split over two writes (the second arriving while the client is
   blocked in recv), a line longer than the 8 KiB buffer, and two lines
   in one write all parse whole and in order. *)
let test_client_read_buffer () =
  let module Client = Ids_serve.Client in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let client = Client.of_fd a in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      Unix.close b)
    (fun () ->
      let line id = Request.response_to_json (Request.Pong { id }) ^ "\n" in
      let put s = ignore (Unix.write_substring b s 0 (String.length s)) in
      let next () =
        match Client.recv client with
        | Ok r -> Request.response_id r
        | Error e -> Alcotest.fail e
      in
      let split = line "split" in
      let cut = String.length split / 2 in
      put (String.sub split 0 cut);
      let late =
        Domain.spawn (fun () ->
            Unix.sleepf 0.05;
            put (String.sub split cut (String.length split - cut)))
      in
      Alcotest.(check string) "split line" "split" (next ());
      Domain.join late;
      let long_id = String.make 10_000 'x' in
      let long = line long_id in
      put (String.sub long 0 5000);
      put (String.sub long 5000 (String.length long - 5000));
      Alcotest.(check string) "line longer than the buffer" long_id (next ());
      put (line "first" ^ line "second");
      Alcotest.(check string) "first of two" "first" (next ());
      Alcotest.(check string) "second of two" "second" (next ()))

let suite =
  [ ( "serve",
      [ Alcotest.test_case "supervisor: backoff schedule" `Quick test_backoff_schedule;
        Alcotest.test_case "supervisor: dispatch and shed" `Quick test_dispatch_and_shed;
        Alcotest.test_case "supervisor: crash, backoff, retry, give up" `Quick
          test_crash_backoff_retry;
        Alcotest.test_case "supervisor: restart budget exhaustion" `Quick
          test_restart_budget_exhaustion;
        Alcotest.test_case "supervisor: deadline kill then retry" `Quick
          test_deadline_kill_then_retry;
        Alcotest.test_case "supervisor: drain semantics" `Quick test_drain_semantics;
        Alcotest.test_case "supervisor: next wakeup" `Quick test_next_wakeup;
        Alcotest.test_case "chaos: seeded kill schedule" `Quick test_chaos;
        Alcotest.test_case "wire codec round-trips" `Quick test_request_codec;
        Alcotest.test_case "framed log round-trip" `Quick test_framed_roundtrip;
        Alcotest.test_case "framed log: torn tail recovery" `Quick
          test_framed_torn_tail_recovery;
        Alcotest.test_case "framed log: corruption is not a torn tail" `Quick
          test_framed_bad_line_vs_torn;
        Alcotest.test_case "framed log: hostile length headers" `Quick
          test_framed_hostile_headers;
        Alcotest.test_case "framed log: write_batch" `Quick test_framed_write_batch;
        Alcotest.test_case "json: nesting depth limit" `Quick test_json_depth_limit;
        Alcotest.test_case "BENCH_serve.json shape" `Quick test_bench_serve_shape;
        Alcotest.test_case "client: lines across reads" `Quick test_client_read_buffer
      ] )
  ]
