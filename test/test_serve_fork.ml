(* Real-fork worker integration test, isolated in its own executable.

   OCaml 5 forbids Unix.fork once any other domain has been spawned, and the
   shared test binary runs multi-domain engine suites first.  This binary
   never spawns a domain (Catalog.execute_request pins ~domains:1), so the
   Pool.spawn forks below are legal; its first case checks that one-domain
   calls leave the scheduler's pool unstarted.  It pins the acceptance criterion that a
   request completed via retry after a worker crash is bit-identical to the
   in-process engine. *)

module Request = Ids_serve.Request
module Catalog = Ids_serve.Catalog
module Pool = Ids_serve.Pool
module Server = Ids_serve.Server
module Client = Ids_serve.Client
module Supervisor = Ids_serve.Supervisor
module Runlog = Ids_engine.Runlog
module Fault = Ids_network.Fault

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let wait_readable fd =
  match Unix.select [ fd ] [] [] 30. with
  | [], _, _ -> Alcotest.fail "worker response timed out"
  | _ -> ()

let read_response w =
  let rec go () =
    wait_readable (Pool.read_fd w);
    match Pool.read w with
    | `Lines (line :: _) -> `Line line
    | `Lines [] -> go ()
    | `Eof -> `Eof
  in
  go ()

let test_forked_worker_retry_bit_identical () =
  let protocol = "sym_dmam" and strategy = "honest" and trials = 5 in
  let req =
    Request.make_estimate ~kill_attempt:1 ~id:"it1" ~protocol ~strategy ~trials ()
  in
  (* Attempt 1: the worker self-kills before computing. *)
  let w1 = Pool.spawn ~wid:0 () in
  checkb "attempt 1 sent" true (Pool.send w1 ~attempt:1 req);
  (match read_response w1 with
  | `Eof -> ()
  | `Line l -> Alcotest.failf "worker survived its forced kill: %s" l);
  ignore (Unix.waitpid [] (Pool.pid w1));
  Pool.shutdown w1;
  (* Attempt 2 on a fresh worker: kill_attempt=1 no longer fires. *)
  let w2 = Pool.spawn ~wid:0 () in
  checkb "attempt 2 sent" true (Pool.send w2 ~attempt:2 req);
  let line =
    match read_response w2 with
    | `Line l -> l
    | `Eof -> Alcotest.fail "worker died on the retry"
  in
  Pool.shutdown w2;
  ignore (Unix.waitpid [] (Pool.pid w2));
  (match Request.response_of_line line with
  | Ok (Request.Estimated { id = "it1"; attempts = 2; record; _ }) ->
    let want =
      match Catalog.execute_request ~protocol ~strategy ~trials ~fault:Fault.none with
      | Ok r -> r
      | Error e -> Alcotest.failf "in-process oracle failed: %s" e
    in
    check Alcotest.string "retried result bit-identical to the in-process engine" want record
  | Ok _ -> Alcotest.fail "unexpected response shape"
  | Error e -> Alcotest.failf "bad response line: %s" e)

(* The torn-frame drill at the pool layer (the E20 chaos-during-framing
   satellite): a worker killed mid-response-write must leave only a partial
   line behind — which the reader discards wholesale at EOF — and the retry
   on a fresh worker must produce a byte-identical record with a complete,
   parseable telemetry frame.  The lost first-attempt delta surfaces as a
   counted gap (the dead incarnation's frames never arrive), never as a
   parse error. *)
let test_torn_frame_lost_delta_clean_retry () =
  let protocol = "sym_dmam" and strategy = "honest" and trials = 4 in
  let req =
    Request.make_estimate ~torn_attempt:1 ~trace:("tr-torn", 3) ~id:"torn1" ~protocol ~strategy
      ~trials ()
  in
  let w1 = Pool.spawn ~telemetry:true ~wid:0 () in
  checkb "attempt 1 sent" true (Pool.send w1 ~attempt:1 req);
  (* The worker writes roughly half the line and SIGKILLs itself: the pipe
     EOFs with a partial line buffered, and `read` must not surface it as a
     parseable line. *)
  let rec drain_to_eof salvaged =
    wait_readable (Pool.read_fd w1);
    match Pool.read w1 with
    | `Lines ls -> drain_to_eof (salvaged @ ls)
    | `Eof -> salvaged
  in
  let salvaged = drain_to_eof [] in
  checkb "no complete line salvaged from the torn write" true (salvaged = []);
  ignore (Unix.waitpid [] (Pool.pid w1));
  Pool.shutdown w1;
  (* Retry on a fresh worker: full line, complete frame, fresh chain. *)
  let w2 = Pool.spawn ~telemetry:true ~wid:0 () in
  checkb "attempt 2 sent" true (Pool.send w2 ~attempt:2 req);
  let line =
    match read_response w2 with
    | `Line l -> l
    | `Eof -> Alcotest.fail "worker died on the retry"
  in
  Pool.shutdown w2;
  ignore (Unix.waitpid [] (Pool.pid w2));
  match Request.response_of_line line with
  | Error e -> Alcotest.failf "retried response did not parse: %s" e
  | Ok (Request.Estimated { id = "torn1"; attempts = 2; record; telemetry = Some f }) ->
    checkb "fresh incarnation restarts the frame chain" true (f.Request.fseq = 1);
    checkb "frame echoes the request's trace context" true (f.Request.ftrace = Some ("tr-torn", 3));
    checkb "frame carries the worker.execute span" true
      (List.exists (fun (s : Ids_obs.Obs.span_record) -> s.Ids_obs.Obs.sname = "worker.execute") f.Request.fspans);
    let want =
      match Catalog.execute_request ~protocol ~strategy ~trials ~fault:Fault.none with
      | Ok r -> r
      | Error e -> Alcotest.failf "in-process oracle failed: %s" e
    in
    (* Telemetry workers embed a metrics object in the record; compare net
       of it (every other field must agree exactly). *)
    let strip r =
      match Ids_engine.Runlog.of_line r with
      | Ok rec_ -> { rec_ with Ids_engine.Runlog.metrics = None }
      | Error e -> Alcotest.failf "record does not parse: %s" e
    in
    checkb "retried record identical to the oracle net of metrics" true (strip want = strip record)
  | Ok _ -> Alcotest.fail "unexpected response shape"

(* Graceful EOF: closing the request pipe must produce a Flush frame whose
   delta carries everything not yet shipped, so the frame chain telescopes
   to the worker's full ledger even when the worker exits idle. *)
let test_graceful_eof_flush () =
  let req =
    Request.make_estimate ~id:"f1" ~protocol:"sym_dmam" ~strategy:"honest" ~trials:3 ()
  in
  let w = Pool.spawn ~telemetry:true ~wid:0 () in
  checkb "request sent" true (Pool.send w ~attempt:1 req);
  (match read_response w with
  | `Line l -> (
    match Request.response_of_line l with
    | Ok (Request.Estimated { telemetry = Some f; _ }) ->
      checkb "first frame of the incarnation" true (f.Request.fseq = 1)
    | Ok _ -> Alcotest.fail "telemetry worker shipped no frame"
    | Error e -> Alcotest.failf "bad response line: %s" e)
  | `Eof -> Alcotest.fail "worker died");
  Pool.close_writer w;
  (match read_response w with
  | `Line l -> (
    match Request.response_of_line l with
    | Ok (Request.Flush f) ->
      checkb "flush continues the frame chain" true (f.Request.fseq = 2);
      checkb "flush carries no trace context" true (f.Request.ftrace = None)
    | Ok _ -> Alcotest.fail "expected a Flush frame on EOF"
    | Error e -> Alcotest.failf "bad flush line: %s" e)
  | `Eof -> Alcotest.fail "worker exited without flushing");
  (match read_response w with
  | `Eof -> ()
  | `Line l -> Alcotest.failf "unexpected line after the flush: %s" l);
  ignore (Unix.waitpid [] (Pool.pid w));
  Pool.shutdown w

(* --- the daemon end to end -------------------------------------------------------- *)

exception Timed_out

(* Fail instead of hanging when the daemon stops answering. *)
let with_alarm secs f =
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out)) in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm prev)
    f

(* Run [Server.run] in a forked child on a private socket and log, hand
   [f] the config and a [stop] that SIGTERMs the daemon and requires a
   clean drain. A failing test still kills and reaps the daemon. *)
let with_daemon ~workers f =
  let dir = Filename.temp_file "ids_serve_fork" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cfg =
    { Server.default with
      socket = Filename.concat dir "serve.sock";
      log_path = Filename.concat dir "runs.log";
      sup = { Supervisor.default with Supervisor.workers }
    }
  in
  flush_all ();
  let pid =
    match Unix.fork () with
    | 0 -> (
      match Server.run cfg with
      | Ok () -> Unix._exit 0
      | Error e ->
        prerr_endline ("daemon: " ^ e);
        Unix._exit 1)
    | pid -> pid
  in
  let running = ref true in
  let stop () =
    running := false;
    Unix.kill pid Sys.sigterm;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "daemon did not drain cleanly"
  in
  Fun.protect
    ~finally:(fun () ->
      if !running then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> with_alarm 120 (fun () -> f cfg stop))

let connect cfg =
  match Client.connect ~wait:10. cfg.Server.socket with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let parse_record label r =
  match Runlog.of_line r with Ok r -> r | Error e -> Alcotest.failf "%s: record: %s" label e

let oracle ~trials =
  match Catalog.execute_request ~protocol:"sym_dmam" ~strategy:"honest" ~trials ~fault:Fault.none with
  | Ok r -> r
  | Error e -> Alcotest.failf "in-process oracle failed: %s" e

(* The group-commit invariant: with 8 requests in flight on 2 workers,
   every Estimated reply finds its record already in the log, and at drain
   the log holds exactly the served records, each once, in the order the
   replies arrived (one connection, so arrival order is completion order). *)
let test_reply_after_logged () =
  with_daemon ~workers:2 (fun cfg stop ->
      let c = connect cfg in
      let trials i = 2 + i in
      for i = 0 to 7 do
        match
          Client.send c
            (Request.make_estimate ~id:(Printf.sprintf "g%d" i) ~protocol:"sym_dmam"
               ~strategy:"honest" ~trials:(trials i) ())
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "send: %s" e
      done;
      let served =
        List.init 8 (fun _ ->
            match Client.recv c with
            | Ok (Request.Estimated { id; record; _ }) ->
              let logged =
                match Runlog.read_file_lenient cfg.Server.log_path with
                | Ok { Runlog.records; _ } -> records
                | Error e -> Alcotest.failf "log read: %s" e
              in
              checkb (id ^ ": record logged before the reply") true
                (List.mem (parse_record id record) logged);
              let i = int_of_string (String.sub id 1 (String.length id - 1)) in
              check Alcotest.string (id ^ ": record equals the in-process engine")
                (oracle ~trials:(trials i)) record;
              record
            | Ok r -> Alcotest.failf "unexpected response %s" (Request.response_to_json r)
            | Error e -> Alcotest.failf "recv: %s" e)
      in
      (* The group-commit counters, in every stats format. *)
      let stats fmt =
        match Client.request c { Request.id = "s"; op = Request.Stats fmt; trace = None } with
        | Ok (Request.Stats_reply { stats; body; _ }) -> (stats, Option.value body ~default:"")
        | Ok r -> Alcotest.failf "stats: %s" (Request.response_to_json r)
        | Error e -> Alcotest.failf "stats: %s" e
      in
      let basic, _ = stats Request.Basic in
      let get k = Option.value (List.assoc_opt k basic) ~default:(-1) in
      Alcotest.(check int) "log_records counts every record" 8 (get "log_records");
      checkb "one fsync per batch, at most one per record" true
        (get "log_syncs" >= 1 && get "log_syncs" <= 8);
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      let _, json = stats Request.Json_full in
      checkb "JSON stats carry log_records" true (contains json {|"log_records":8|});
      checkb "JSON stats carry log_syncs" true (contains json {|"log_syncs":|});
      let _, prom = stats Request.Prom in
      checkb "Prometheus stats carry both" true
        (contains prom {|event="log_records"} 8|} && contains prom {|event="log_syncs"}|});
      Client.close c;
      stop ();
      match Runlog.read_file cfg.Server.log_path with
      | Error e -> Alcotest.failf "log after drain: %s" e
      | Ok records ->
        checkb "log = served records, each once, in completion order" true
          (records = List.map (parse_record "served") served))

let read_line_within fd secs =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] secs with
    | [], _, _ -> Alcotest.fail "no reply to the oversized line"
    | _ -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n -> (
        Buffer.add_subbytes buf chunk 0 n;
        match String.index_opt (Buffer.contents buf) '\n' with
        | Some i -> String.sub (Buffer.contents buf) 0 i
        | None -> go ()))
  in
  go ()

(* One client streams a line that never ends while another is served: the
   daemon answers the streamer Bad_request once the line passes the cap,
   closes it, and keeps serving everyone else. *)
let test_endless_line_cut () =
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_pipe)
    (fun () ->
      with_daemon ~workers:1 (fun cfg stop ->
          (* Connecting [b] first also waits out the daemon's startup. *)
          let b = connect cfg in
          let served label =
            match
              Client.request b
                (Request.make_estimate ~id:label ~protocol:"sym_dmam" ~strategy:"honest"
                   ~trials:3 ())
            with
            | Ok (Request.Estimated { record; _ }) ->
              check Alcotest.string (label ^ ": served") (oracle ~trials:3) record
            | Ok r -> Alcotest.failf "%s: %s" label (Request.response_to_json r)
            | Error e -> Alcotest.failf "%s: %s" label e
          in
          let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect a (Unix.ADDR_UNIX cfg.Server.socket);
              let chunk = String.make 4096 'x' in
              ignore (Unix.write_substring a chunk 0 (String.length chunk) : int);
              served "while-streaming";
              let rec flood sent =
                if sent > 64 * 1024 * 1024 then Alcotest.fail "the endless line was never cut"
                else
                  match Unix.write_substring a chunk 0 (String.length chunk) with
                  | n -> flood (sent + n)
                  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
              in
              flood 0;
              match Request.response_of_line (read_line_within a 30.) with
              | Ok (Request.Rejected { reject = Request.Bad_request _; _ }) -> ()
              | Ok r -> Alcotest.failf "streamer got %s" (Request.response_to_json r)
              | Error e -> Alcotest.failf "streamer reply: %s" e);
          served "after-cut";
          Client.close b;
          stop ()))

(* Every one-domain path the serve workers and a [~domains:1] Apihash run
   take: none may start the pool, or no fork after it could succeed. *)
let test_one_domain_never_starts_pool () =
  let module Scheduler = Ids_engine.Scheduler in
  let g = Ids_graph.Family.expander (Ids_bignum.Rng.create 4) ~n:64 ~degree:4 in
  ignore (Scheduler.map_range ~domains:1 ~lo:0 ~hi:8 Fun.id);
  ignore (Scheduler.map_ranges ~domains:1 ~n:64 (fun ~lo ~hi -> hi - lo));
  checkb "apihash accepts" true (Ids_proof.Apihash.run ~domains:1 ~seed:1 ~root:0 g).Ids_proof.Outcome.accepted;
  let e = List.hd (Catalog.entries ()) in
  (match Catalog.execute_request ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy ~trials:4 ~fault:Fault.none with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "catalog request: %s" e);
  check Alcotest.int "pool never started" 0 (Scheduler.size ())

let () =
  Alcotest.run "ids-serve-fork"
    [ ( "serve-fork",
        [ Alcotest.test_case "one-domain calls never start the pool" `Quick test_one_domain_never_starts_pool;
          Alcotest.test_case "forked worker: retried result bit-identical" `Quick
            test_forked_worker_retry_bit_identical;
          Alcotest.test_case "torn frame: counted gap, clean retry" `Quick
            test_torn_frame_lost_delta_clean_retry;
          Alcotest.test_case "graceful EOF ships a Flush frame" `Quick test_graceful_eof_flush;
          Alcotest.test_case "daemon: every reply follows its logged record" `Quick
            test_reply_after_logged;
          Alcotest.test_case "daemon: an endless request line is cut" `Quick
            test_endless_line_cut
        ] )
    ]
