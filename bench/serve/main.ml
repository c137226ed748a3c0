(* E18: the fault-tolerant verification service under chaos.

   Boots the ids_serve daemon (forked in-process), drives it through a
   pipelined client, and measures availability and latency while seeded
   chaos kills workers mid-request:

   - phase A (throughput + chaos): a deterministic workload over the whole
     request catalog, 10% seeded worker-kill rate plus a handful of forced
     kills (kill_attempt=1), closed-loop with a fixed window. Asserts every
     accepted request completes (retry absorbs every crash), every
     completed estimate is bit-identical to the in-process engine, and the
     daemon drains cleanly on SIGTERM.
   - phase B (load shedding): a small pool behind a tiny queue gets a
     burst; submits beyond the bound must be shed "overloaded" immediately
     and everything accepted must still complete.
   - phase C (crash-safe log): the daemon's framed run log must hold
     exactly the completed records; a simulated kill -9 mid-write (a torn
     trailing frame appended to the file) must be detected by the lenient
     reader and truncated away by recovery on the next writer open.

   The kill schedule is pure in (chaos seed, request id, attempt) — the
   same requests die on the same attempts on every machine and every
   IDS_DOMAINS setting — so the availability numbers are comparable
   across runs even though wall-clock timings are not.

   Full run:   dune exec bench/serve/main.exe     (writes BENCH_serve.json)
   Smoke run:  dune exec bench/serve/main.exe -- --smoke
               (3 requests incl. one forced kill; wired into @runtest-fast) *)

module Server = Ids_serve.Server
module Client = Ids_serve.Client
module Request = Ids_serve.Request
module Catalog = Ids_serve.Catalog
module Chaos = Ids_serve.Chaos
module Supervisor = Ids_serve.Supervisor
module Runlog = Ids_engine.Runlog
module Fault = Ids_network.Fault
module Obs = Ids_obs.Obs

(* Daemons forked by the running phase: a failing assertion must kill them,
   or the orphans keep the bench's stdout pipe open and hang the harness. *)
let daemons : int list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench/serve FAILED: " ^ m);
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !daemons;
      exit 1)
    fmt

(* Seconds on the monotonic clock. *)
let now () = float_of_int (Obs.now_ns ()) *. 1e-9

(* --- the in-process oracle -------------------------------------------------------- *)

let oracle : (string, string) Hashtbl.t = Hashtbl.create 32

let expected_record ~protocol ~strategy ~trials ~fault =
  let key = Printf.sprintf "%s/%s/%d/%s" protocol strategy trials (Fault.to_string fault) in
  match Hashtbl.find_opt oracle key with
  | Some r -> r
  | None ->
    let r =
      match Catalog.execute_request ~protocol ~strategy ~trials ~fault with
      | Ok r -> r
      | Error e -> fail "oracle cannot execute %s: %s" key e
    in
    Hashtbl.add oracle key r;
    r

(* --- daemon lifecycle ------------------------------------------------------------- *)

let start_daemon cfg =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> (
    match Server.run cfg with
    | Ok () -> Unix._exit 0
    | Error e ->
      Printf.eprintf "daemon: %s\n%!" e;
      Unix._exit 1)
  | pid ->
    daemons := pid :: !daemons;
    pid

let stop_daemon pid =
  daemons := List.filter (fun p -> p <> pid) !daemons;
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail "daemon exited %d after SIGTERM (expected a clean drain)" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> fail "daemon killed/stopped by signal %d" s

(* --- phase A: throughput + chaos -------------------------------------------------- *)

type served = { sreq : Request.t; sresp : Request.response; latency_ms : float }

(* Closed-loop pipelined driver: keep [window] requests in flight on one
   connection, collect every response with its latency. *)
let drive client reqs ~window =
  let n = Array.length reqs in
  let t0 = Hashtbl.create n in
  let by_id = Hashtbl.create n in
  Array.iter (fun (r : Request.t) -> Hashtbl.replace by_id r.Request.id r) reqs;
  let out = ref [] in
  let sent = ref 0 and received = ref 0 in
  while !received < n do
    while !sent < n && !sent - !received < window do
      let req = reqs.(!sent) in
      Hashtbl.replace t0 req.Request.id (now ());
      (match Client.send client req with
      | Ok () -> ()
      | Error e -> fail "send %s: %s" req.Request.id e);
      incr sent
    done;
    match Client.recv client with
    | Error e -> fail "recv: %s" e
    | Ok resp ->
      let id = Request.response_id resp in
      let sreq =
        match Hashtbl.find_opt by_id id with
        | Some r -> r
        | None -> fail "response for unknown id %S" id
      in
      let latency_ms =
        match Hashtbl.find_opt t0 id with
        | Some t -> (now () -. t) *. 1000.
        | None -> 0.
      in
      out := { sreq; sresp = resp; latency_ms } :: !out;
      incr received
  done;
  List.rev !out

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(min (n - 1) (p * n / 100))

(* The deterministic workload: round-robin over the catalog, every
   [forced_every]-th request carries kill_attempt=1, every 7th injects a
   network fault (the wire's fault field must survive the trip). *)
let build_requests ~count ~forced_every ~trials_for =
  let entries = Array.of_list (Catalog.entries ()) in
  Array.init count (fun i ->
      let e = entries.(i mod Array.length entries) in
      let fault = if i mod 7 = 3 then Fault.drop_only 0.1 else Fault.none in
      let kill_attempt = if forced_every > 0 && i mod forced_every = 0 then Some 1 else None in
      Request.make_estimate ?kill_attempt ~fault ~id:(Printf.sprintf "q%04d" i)
        ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy
        ~trials:(trials_for e.Catalog.protocol) ())

type phase_a = {
  sent : int;
  completed : int;
  retried_reqs : int;
  forced : int;
  wall_s : float;
  p50_ms : float;
  p99_ms : float;
  max_ms : float;
  recovery_p50_ms : float;
  recovery_max_ms : float;
  stats : (string * int) list;
  log_records : string list;
}

let phase_a ~mode ~socket ~log_path ~chaos ~count ~forced_every ~window ~trials_for =
  let cfg =
    { Server.default with
      Server.socket;
      log_path;
      chaos;
      verbose = Sys.getenv_opt "IDS_SERVE_VERBOSE" <> None;
      sup = { Supervisor.default with Supervisor.workers = 4; queue_bound = 256 }
    }
  in
  let reqs = build_requests ~count ~forced_every ~trials_for in
  let pid = start_daemon cfg in
  let client =
    match Client.connect ~wait:10. socket with
    | Ok c -> c
    | Error e -> fail "connect: %s" e
  in
  let t_start = now () in
  let served = drive client reqs ~window in
  let wall_s = now () -. t_start in
  (* Every request must have completed, bit-identical to the oracle. *)
  let retried_lat = ref [] in
  let retried_reqs = ref 0 and forced = ref 0 in
  List.iter
    (fun { sreq; sresp; latency_ms } ->
      match (sreq.Request.op, sresp) with
      | ( Request.Estimate { protocol; strategy; trials; fault; kill_attempt; _ },
          Request.Estimated { attempts; record; _ } ) ->
        let want = expected_record ~protocol ~strategy ~trials ~fault in
        if record <> want then
          fail "%s: served record differs from the in-process engine\n  served: %s\n  oracle: %s"
            sreq.Request.id record want;
        if attempts > 1 then begin
          incr retried_reqs;
          retried_lat := latency_ms :: !retried_lat
        end;
        (match kill_attempt with
        | Some _ ->
          incr forced;
          if attempts < 2 then
            fail "%s: forced kill_attempt=1 but the daemon reports %d attempt(s)" sreq.Request.id
              attempts
        | None -> ())
      | _, Request.Rejected { reject; _ } ->
        let r =
          match reject with
          | Request.Overloaded -> "overloaded"
          | Request.Draining -> "draining"
          | Request.Bad_request e -> "bad_request: " ^ e
          | Request.Failed e -> "failed: " ^ e
        in
        fail "%s: rejected (%s) — chaos must be absorbed by retry" sreq.Request.id r
      | _ -> fail "%s: unexpected response shape" sreq.Request.id)
    served;
  (* The daemon's own view must agree: everything accepted completed. *)
  let stats =
    match
      Client.request client { Request.id = "stats"; op = Request.Stats Request.Basic; trace = None }
    with
    | Ok (Request.Stats_reply { stats; _ }) -> stats
    | Ok _ -> fail "stats: wrong response shape"
    | Error e -> fail "stats: %s" e
  in
  let stat name =
    match List.assoc_opt name stats with Some v -> v | None -> fail "stats lack %S" name
  in
  if stat "accepted" <> count then fail "accepted %d of %d submits" (stat "accepted") count;
  if stat "completed" <> count then
    fail "availability broken: completed %d of %d accepted" (stat "completed") count;
  if !forced > 0 && stat "worker_crashes" = 0 then fail "forced kills but no crashes counted";
  Client.close client;
  stop_daemon pid;
  (* The crash-safe log holds exactly the completed records (order is
     completion order, so compare as multisets). *)
  let log_records =
    match Runlog.read_file_lenient log_path with
    | Error e -> fail "run log unreadable after drain: %s" e
    | Ok { Runlog.records = _; tail = Some t; _ } ->
      fail "run log not clean after drain: %s" (Runlog.tail_error_to_string t)
    | Ok { Runlog.records; tail = None; _ } ->
      ignore records;
      (* Re-read raw framed payloads for exact string comparison. *)
      let ic = open_in_bin log_path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      let rec payloads off acc =
        if off >= String.length s then List.rev acc
        else
          match String.index_from_opt s off '\n' with
          | None -> fail "run log: unterminated frame header"
          | Some hdr_end ->
            let plen =
              int_of_string (String.sub s (off + String.length Runlog.Framed.magic)
                               (hdr_end - off - String.length Runlog.Framed.magic))
            in
            payloads (hdr_end + 1 + plen + 1) (String.sub s (hdr_end + 1) plen :: acc)
      in
      payloads 0 []
  in
  let want =
    List.filter_map
      (fun { sresp; _ } ->
        match sresp with Request.Estimated { record; _ } -> Some record | _ -> None)
      served
  in
  if List.sort compare log_records <> List.sort compare want then
    fail "run log records (%d) differ from the served estimates (%d)" (List.length log_records)
      (List.length want);
  let lat = Array.of_list (List.map (fun s -> s.latency_ms) served) in
  Array.sort compare lat;
  let rlat = Array.of_list !retried_lat in
  Array.sort compare rlat;
  Printf.printf
    "phase A (%s): %d requests in %.2fs (%.1f req/s), p50 %.1fms p99 %.1fms, %d retried (forced %d), crashes %d, restarts %d\n%!"
    mode count wall_s
    (float_of_int count /. wall_s)
    (percentile lat 50) (percentile lat 99) !retried_reqs !forced (stat "worker_crashes")
    (stat "restarts");
  { sent = count;
    completed = count;
    retried_reqs = !retried_reqs;
    forced = !forced;
    wall_s;
    p50_ms = percentile lat 50;
    p99_ms = percentile lat 99;
    max_ms = (if Array.length lat = 0 then 0. else lat.(Array.length lat - 1));
    recovery_p50_ms = percentile rlat 50;
    recovery_max_ms = (if Array.length rlat = 0 then 0. else rlat.(Array.length rlat - 1));
    stats;
    log_records
  }

(* --- phase B: load shedding ------------------------------------------------------- *)

let phase_b ~socket ~burst =
  let cfg =
    { Server.default with
      Server.socket;
      log_path = "";
      chaos = Chaos.none;
      sup = { Supervisor.default with Supervisor.workers = 2; queue_bound = 4 }
    }
  in
  let pid = start_daemon cfg in
  let client =
    match Client.connect ~wait:10. socket with
    | Ok c -> c
    | Error e -> fail "connect: %s" e
  in
  (* Burst-send without reading: the daemon sees the whole batch before any
     worker can finish, so everything beyond workers+queue_bound must shed. *)
  let reqs =
    Array.init burst (fun i ->
        Request.make_estimate ~id:(Printf.sprintf "b%03d" i) ~protocol:"sym_dam"
          ~strategy:"honest" ~trials:3 ())
  in
  Array.iter
    (fun r -> match Client.send client r with Ok () -> () | Error e -> fail "burst send: %s" e)
    reqs;
  let ok = ref 0 and shed = ref 0 in
  for _ = 1 to burst do
    match Client.recv client with
    | Error e -> fail "burst recv: %s" e
    | Ok (Request.Estimated { record; _ }) ->
      let want = expected_record ~protocol:"sym_dam" ~strategy:"honest" ~trials:3 ~fault:Fault.none in
      if record <> want then fail "burst: served record differs from the in-process engine";
      incr ok
    | Ok (Request.Rejected { reject = Request.Overloaded; _ }) -> incr shed
    | Ok (Request.Rejected _) -> fail "burst: rejection other than overloaded"
    | Ok _ -> fail "burst: unexpected response shape"
  done;
  if !shed = 0 then fail "burst of %d never shed (queue bound not enforced)" burst;
  if !ok = 0 then fail "burst of %d all shed (nothing served)" burst;
  if !ok + !shed <> burst then fail "burst accounting: %d ok + %d shed <> %d" !ok !shed burst;
  Client.close client;
  stop_daemon pid;
  Printf.printf "phase B: burst %d -> %d served, %d shed (queue bound 4, 2 workers)\n%!" burst !ok
    !shed;
  (!ok, !shed)

(* --- phase C: crash-safe log recovery --------------------------------------------- *)

let phase_c ~log_path ~expect_records =
  (* Simulate kill -9 mid-append: a torn trailing frame. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 log_path in
  output_string oc "=IDS 4096\n{\"torn\":tr";
  close_out oc;
  (match Runlog.read_file_lenient log_path with
  | Error e -> fail "torn log unreadable: %s" e
  | Ok { Runlog.records; tail = Some (Runlog.Torn_tail _); _ } ->
    if List.length records <> expect_records then
      fail "torn log: %d records visible, want %d" (List.length records) expect_records
  | Ok { Runlog.tail; _ } ->
    fail "torn tail not detected (tail = %s)"
      (match tail with None -> "none" | Some t -> Runlog.tail_error_to_string t));
  (* Recovery on the next writer open truncates the torn tail... *)
  let removed =
    match Runlog.Framed.create log_path with
    | Error e -> fail "recovery open failed: %s" e
    | Ok w ->
      let t = Runlog.Framed.truncated w in
      Runlog.Framed.close w;
      t
  in
  if removed = 0 then fail "recovery removed nothing (torn tail survived)";
  (* ...leaving exactly the completed records, cleanly readable. *)
  (match Runlog.read_file_lenient log_path with
  | Error e -> fail "recovered log unreadable: %s" e
  | Ok { Runlog.records; tail = None; _ } ->
    if List.length records <> expect_records then
      fail "recovered log: %d records, want %d" (List.length records) expect_records
  | Ok { Runlog.tail = Some t; _ } ->
    fail "recovered log still dirty: %s" (Runlog.tail_error_to_string t));
  Printf.printf "phase C: torn tail (%d bytes) detected and truncated; %d records intact\n%!"
    removed expect_records

(* --- report ----------------------------------------------------------------------- *)

let write_report ~out ~mode (a : phase_a) ~burst_ok ~burst_shed =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  let stat name = Option.value (List.assoc_opt name a.stats) ~default:0 in
  p "{\n";
  p "  \"schema_version\": 1,\n";
  p "  \"mode\": %S,\n" mode;
  p "  \"chaos\": {\"kill_rate\": 0.1, \"seed\": 7, \"forced_kills\": %d},\n" a.forced;
  p "  \"requests\": {\"sent\": %d, \"completed\": %d, \"retried\": %d, \"failed\": 0},\n" a.sent
    a.completed a.retried_reqs;
  p "  \"availability\": %.4f,\n" (float_of_int a.completed /. float_of_int a.sent);
  p "  \"bit_identical\": true,\n";
  p "  \"throughput_rps\": %.2f,\n" (float_of_int a.sent /. a.wall_s);
  p "  \"latency_ms\": {\"p50\": %.2f, \"p99\": %.2f, \"max\": %.2f},\n" a.p50_ms a.p99_ms a.max_ms;
  p "  \"recovery_ms\": {\"p50\": %.2f, \"max\": %.2f},\n" a.recovery_p50_ms a.recovery_max_ms;
  p "  \"supervisor\": {\"worker_crashes\": %d, \"timed_out\": %d, \"restarts\": %d},\n"
    (stat "worker_crashes") (stat "timed_out") (stat "restarts");
  p "  \"shed_burst\": {\"sent\": %d, \"served\": %d, \"shed\": %d},\n" (burst_ok + burst_shed)
    burst_ok burst_shed;
  p "  \"log\": {\"records\": %d, \"torn_tail_recovered\": true}\n" (List.length a.log_records);
  p "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* --- main ------------------------------------------------------------------------- *)

let () =
  let smoke = ref false and out = ref "BENCH_serve.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | ("-o" | "--out") :: path :: rest ->
      out := path;
      parse rest
    | arg :: _ -> fail "unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let socket = Printf.sprintf "ids_bench_%d.sock" (Unix.getpid ()) in
  let log_path = Printf.sprintf "ids_bench_%d_runs.jsonl" (Unix.getpid ()) in
  if Sys.file_exists log_path then Sys.remove log_path;
  let cleanup () =
    List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ socket; log_path ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      if !smoke then begin
        (* serve-smoke: 3 requests, one forced worker kill, clean drain. *)
        let a =
          phase_a ~mode:"smoke" ~socket ~log_path ~chaos:Chaos.none ~count:3 ~forced_every:2
            ~window:3 ~trials_for:(fun _ -> 3)
        in
        phase_c ~log_path ~expect_records:3;
        if a.retried_reqs < a.forced then fail "forced kills did not surface as retries";
        print_endline "bench/serve smoke: OK"
      end
      else begin
        let a =
          phase_a ~mode:"full" ~socket ~log_path ~chaos:(Chaos.make ~kill:0.1 ~seed:7 ())
            ~count:60 ~forced_every:10 ~window:16
            ~trials_for:(function "sym_dam" -> 4 | "gni" -> 8 | _ -> 16)
        in
        let burst_ok, burst_shed = phase_b ~socket ~burst:40 in
        phase_c ~log_path ~expect_records:60;
        write_report ~out:!out ~mode:"full" a ~burst_ok ~burst_shed;
        print_endline "bench/serve: OK"
      end)
