(* E20: the service telemetry plane under chaos.

   Boots the ids_serve daemon with telemetry and tracing on and pins the
   three guarantees the observability layer makes:

   - phase A (ledger exactness + trace stitching): a chaos workload over
     the catalog (4 workers, seeded kills). Every response must carry a
     telemetry frame; the server-folded ledger's net-bit counters must
     equal the in-process oracle's per-request deltas summed over completed
     requests EXACTLY — crashes lose whole deltas, which are counted, never
     smeared into the aggregate. After drain, the merged Chrome trace must
     stitch server spans (queue-wait, request) and worker compute spans
     from at least two pids under shared trace ids, with worker spans
     nested inside their request window on the shared clock.
   - phase B (enabled-path overhead, full mode only): the same workload
     with telemetry off vs on; the throughput cost of shipping frames must
     stay under 3%.
   - phase C (torn frame): a request forced to die mid-response-write
     (torn_attempt=1) must surface as a retry that completes bit-identically
     plus one counted lost delta — the torn half-line must never reach a
     parser.

   Records are compared net of their embedded metrics window: memo.*
   counters depend on process cache warmth, so a worker's 2nd execution of
   a catalog entry legitimately differs there while staying bit-identical
   everywhere else. The net.* counters are warmth-independent, which is
   what makes the exactness pin possible.

   Full run:   dune exec bench/telemetry/main.exe   (writes BENCH_telemetry.json)
   Smoke run:  dune exec bench/telemetry/main.exe -- --smoke   (@runtest-fast) *)

module Server = Ids_serve.Server
module Client = Ids_serve.Client
module Request = Ids_serve.Request
module Catalog = Ids_serve.Catalog
module Chaos = Ids_serve.Chaos
module Supervisor = Ids_serve.Supervisor
module Runlog = Ids_engine.Runlog
module Fault = Ids_network.Fault
module Obs = Ids_obs.Obs
module Trace = Ids_obs.Trace
module Json = Ids_obs.Json

(* Daemons forked by the running phase: a failing assertion must kill them,
   or the orphans keep the bench's stdout pipe open and hang the harness. *)
let daemons : int list ref = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench/telemetry FAILED: " ^ m);
      List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !daemons;
      exit 1)
    fmt

(* Seconds on the monotonic clock. *)
let now () = float_of_int (Obs.now_ns ()) *. 1e-9

(* --- the instrumented in-process oracle ------------------------------------------- *)

(* Per catalog key: the expected record and the exact net.* counter deltas
   one execution contributes (measured with the same checkpoint/since
   window the worker uses, so the exactness pin is apples to apples). *)
let oracle : (string, string * (string * int) list) Hashtbl.t = Hashtbl.create 32

let expected ~protocol ~strategy ~trials ~fault =
  let key = Printf.sprintf "%s/%s/%d/%s" protocol strategy trials (Fault.to_string fault) in
  match Hashtbl.find_opt oracle key with
  | Some v -> v
  | None ->
    Obs.set_enabled true;
    let cp = Obs.checkpoint () in
    let r =
      match Catalog.execute_request ~protocol ~strategy ~trials ~fault with
      | Ok r -> r
      | Error e -> fail "oracle cannot execute %s: %s" key e
    in
    let d = Obs.since cp in
    let nets =
      List.filter_map
        (fun (c : Obs.counter_snapshot) ->
          if String.length c.Obs.cname >= 4 && String.sub c.Obs.cname 0 4 = "net." then
            Some (c.Obs.cname, c.Obs.total)
          else None)
        d.Obs.counters
    in
    Hashtbl.add oracle key (r, nets);
    (r, nets)

(* Strip the embedded metrics window before comparing records: both sides
   must parse, and everything except the metrics object must agree. *)
let net_of_metrics label line =
  match Runlog.of_line line with
  | Ok r -> { r with Runlog.metrics = None }
  | Error e -> fail "%s record does not parse: %s" label e

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

(* --- pipelined driver ------------------------------------------------------------- *)

type served = { sreq : Request.t; sresp : Request.response }

let drive client reqs ~window =
  let n = Array.length reqs in
  let by_id = Hashtbl.create n in
  Array.iter (fun (r : Request.t) -> Hashtbl.replace by_id r.Request.id r) reqs;
  let out = ref [] in
  let sent = ref 0 and received = ref 0 in
  while !received < n do
    while !sent < n && !sent - !received < window do
      (match Client.send client reqs.(!sent) with
      | Ok () -> ()
      | Error e -> fail "send %s: %s" reqs.(!sent).Request.id e);
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
      out := { sreq; sresp = resp } :: !out;
      incr received
  done;
  List.rev !out

let build_requests ~count ~forced_every ~trials_for =
  let entries = Array.of_list (Catalog.entries ()) in
  Array.init count (fun i ->
      let e = entries.(i mod Array.length entries) in
      let fault = if i mod 7 = 3 then Fault.drop_only 0.1 else Fault.none in
      let kill_attempt = if forced_every > 0 && i mod forced_every = 0 then Some 1 else None in
      Request.make_estimate ?kill_attempt ~fault ~id:(Printf.sprintf "t%04d" i)
        ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy
        ~trials:(trials_for e.Catalog.protocol) ())

(* --- telemetry endpoint ----------------------------------------------------------- *)

let fetch_telemetry client =
  match
    Client.request client
      { Request.id = "stats"; op = Request.Stats Request.Json_full; trace = None }
  with
  | Ok (Request.Stats_reply { stats; body = Some b; _ }) -> (
    match Json.parse b with
    | Ok j -> (stats, j)
    | Error e -> fail "telemetry body does not parse: %s" e)
  | Ok (Request.Stats_reply { body = None; _ }) -> fail "stats format=json returned no body"
  | Ok _ -> fail "stats: wrong response shape"
  | Error e -> fail "stats: %s" e

let jget j path = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let jint j path =
  match Option.bind (jget j path) Json.to_int with
  | Some v -> v
  | None -> fail "telemetry json lacks int %s" (String.concat "." path)

let ledger_of j =
  match jget j [ "ledger" ] with
  | None -> fail "telemetry json lacks the ledger"
  | Some l -> (
    match Obs.snapshot_of_json l with
    | Ok s -> s
    | Error e -> fail "ledger snapshot does not decode: %s" e)

(* --- phase A: ledger exactness + trace stitching ---------------------------------- *)

type phase_a = {
  sent : int;
  retried_reqs : int;
  forced : int;
  wall_s : float;
  crashes : int;
  lost_deltas : int;
  frames : int;
  net_totals : (string * int) list;
  trace_pids : int;
  trace_events : int;
}

let phase_a ~mode ~socket ~trace_path ~chaos ~count ~forced_every ~window ~trials_for =
  let cfg =
    { Server.default with
      Server.socket;
      log_path = "";
      chaos;
      telemetry = true;
      trace_path;
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
  (* Every request completed, net-of-metrics bit-identical, frame attached. *)
  let retried_reqs = ref 0 and forced = ref 0 in
  let expected_nets : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun { sreq; sresp } ->
      match (sreq.Request.op, sresp) with
      | ( Request.Estimate { protocol; strategy; trials; fault; kill_attempt; _ },
          Request.Estimated { attempts; record; telemetry; _ } ) ->
        let want, nets = expected ~protocol ~strategy ~trials ~fault in
        if net_of_metrics "served" record <> net_of_metrics "oracle" want then
          fail "%s: served record differs from the oracle net of metrics" sreq.Request.id;
        (* Satellite: the worker-produced record embeds its metrics window. *)
        (match (net_of_metrics "served" record).Runlog.version, (Runlog.of_line record) with
        | 3, Ok { Runlog.metrics = None; _ } ->
          fail "%s: telemetry worker record lacks the embedded metrics window" sreq.Request.id
        | _ -> ());
        List.iter
          (fun (name, v) ->
            Hashtbl.replace expected_nets name
              (v + Option.value (Hashtbl.find_opt expected_nets name) ~default:0))
          nets;
        let frame =
          match telemetry with
          | Some f -> f
          | None -> fail "%s: response carries no telemetry frame" sreq.Request.id
        in
        if frame.Request.fpid <= 0 then fail "%s: frame has no pid" sreq.Request.id;
        if frame.Request.fseq <= 0 then fail "%s: frame has no seq" sreq.Request.id;
        if attempts > 1 then incr retried_reqs;
        (match kill_attempt with
        | Some _ ->
          incr forced;
          if attempts < 2 then fail "%s: forced kill but attempts=%d" sreq.Request.id attempts
        | None -> ())
      | _, Request.Rejected _ -> fail "%s: rejected — chaos must be absorbed" sreq.Request.id
      | _ -> fail "%s: unexpected response shape" sreq.Request.id)
    served;
  (* The exactness pin: the server-folded ledger's net counters equal the
     oracle sums to the bit.  Lost deltas are counted, never folded. *)
  let stats, telem = fetch_telemetry client in
  let stat name =
    match List.assoc_opt name stats with Some v -> v | None -> fail "stats lack %S" name
  in
  if stat "completed" <> count then fail "completed %d of %d" (stat "completed") count;
  let ledger = ledger_of telem in
  let net_totals =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) expected_nets [] |> List.sort compare
  in
  List.iter
    (fun (name, want) ->
      let got = Obs.counter_total ledger name in
      if got <> want then
        fail "ledger %s = %d, oracle sum = %d (must be exact)" name got want)
    net_totals;
  if net_totals = [] then fail "oracle saw no net.* counters (instrumentation dead?)";
  let lost = jint telem [ "lost_deltas" ] in
  let crashes = stat "worker_crashes" in
  (* Chaos kills fire while a request is assigned, so every crash is
     exactly one counted lost delta here. *)
  if lost <> crashes then fail "lost_deltas %d <> worker_crashes %d" lost crashes;
  let frames = jint telem [ "frames" ] in
  if frames < count then fail "only %d frames for %d completed requests" frames count;
  Client.close client;
  stop_daemon pid;
  (* The merged trace: spans from server and workers, stitched per trace id,
     worker compute nested inside its request window on the shared clock. *)
  let evs =
    match Trace.events_of_file trace_path with
    | Ok evs -> evs
    | Error e -> fail "merged trace unreadable: %s" e
  in
  let pids = List.sort_uniq compare (List.map (fun (e : Trace.ev) -> e.Trace.epid) evs) in
  if List.length pids < 2 then
    fail "merged trace has spans from %d pid(s); want server + worker" (List.length pids);
  let tid_of (e : Trace.ev) = List.assoc_opt "trace_id" e.Trace.eargs in
  let requests_ev = List.filter (fun (e : Trace.ev) -> e.Trace.ename = "serve.request") evs in
  let workers_ev = List.filter (fun (e : Trace.ev) -> e.Trace.ename = "worker.execute") evs in
  if List.length requests_ev < count then
    fail "trace has %d serve.request spans for %d requests" (List.length requests_ev) count;
  if workers_ev = [] then fail "trace has no worker.execute spans";
  let slack_ns = 1_000 in
  let stitched = ref 0 in
  List.iter
    (fun (w : Trace.ev) ->
      match tid_of w with
      | None -> fail "worker.execute span carries no trace_id"
      | Some tid -> (
        match List.find_opt (fun r -> tid_of r = Some tid) requests_ev with
        | None -> fail "worker span's trace_id %S has no serve.request span" tid
        | Some r ->
          if w.Trace.epid = r.Trace.epid then fail "worker span recorded by the server pid";
          if
            w.Trace.ets_ns < r.Trace.ets_ns - slack_ns
            || w.Trace.ets_ns + w.Trace.edur_ns > r.Trace.ets_ns + r.Trace.edur_ns + slack_ns
          then
            fail "worker span [%d,+%d] outside its request window [%d,+%d] (trace %S)"
              w.Trace.ets_ns w.Trace.edur_ns r.Trace.ets_ns r.Trace.edur_ns tid;
          incr stitched))
    workers_ev;
  Printf.printf
    "phase A (%s): %d requests in %.2fs, %d retried (forced %d), crashes %d = lost deltas %d, %d frames, %d trace events from %d pids (%d worker spans stitched)\n%!"
    mode count wall_s !retried_reqs !forced crashes lost frames (List.length evs)
    (List.length pids) !stitched;
  { sent = count;
    retried_reqs = !retried_reqs;
    forced = !forced;
    wall_s;
    crashes;
    lost_deltas = lost;
    frames;
    net_totals;
    trace_pids = List.length pids;
    trace_events = List.length evs
  }

(* --- phase B: enabled-path overhead ----------------------------------------------- *)

let timed_run ~socket ~telemetry ~count ~window ~trials_for =
  let cfg =
    { Server.default with
      Server.socket;
      log_path = "";
      chaos = Chaos.none;
      telemetry;
      sup = { Supervisor.default with Supervisor.workers = 4; queue_bound = 256 }
    }
  in
  let reqs = build_requests ~count ~forced_every:0 ~trials_for in
  let pid = start_daemon cfg in
  let client =
    match Client.connect ~wait:10. socket with
    | Ok c -> c
    | Error e -> fail "connect: %s" e
  in
  let t0 = now () in
  let served = drive client reqs ~window in
  let wall = now () -. t0 in
  if List.length served <> count then fail "overhead run served %d of %d" (List.length served) count;
  Client.close client;
  stop_daemon pid;
  wall

(* Interleaved best-of pairs: wall-clock ratios are noisy, so take the best
   of [rounds] paired measurements and retry the verdict against the cap. *)
let phase_b ~socket ~count ~window ~trials_for ~cap_pct =
  let best_off = ref infinity and best_on = ref infinity in
  let rounds = 3 in
  for _ = 1 to rounds do
    best_off := Float.min !best_off (timed_run ~socket ~telemetry:false ~count ~window ~trials_for);
    best_on := Float.min !best_on (timed_run ~socket ~telemetry:true ~count ~window ~trials_for)
  done;
  let pct = ((!best_on /. !best_off) -. 1.) *. 100. in
  Printf.printf "phase B: telemetry off %.3fs, on %.3fs -> overhead %.2f%% (cap %.0f%%)\n%!"
    !best_off !best_on pct cap_pct;
  if pct >= cap_pct then
    fail "telemetry enabled-path overhead %.2f%% >= %.0f%% cap" pct cap_pct;
  (float_of_int count /. !best_off, float_of_int count /. !best_on, pct)

(* --- phase C: torn response frame ------------------------------------------------- *)

let phase_c ~socket =
  let cfg =
    { Server.default with
      Server.socket;
      log_path = "";
      chaos = Chaos.none;
      telemetry = true;
      sup = { Supervisor.default with Supervisor.workers = 2; queue_bound = 8 }
    }
  in
  let pid = start_daemon cfg in
  let client =
    match Client.connect ~wait:10. socket with
    | Ok c -> c
    | Error e -> fail "connect: %s" e
  in
  (* The worker computes, writes half its response line, and SIGKILLs
     itself.  The daemon must treat the torn frame as a whole-line loss:
     retry on a fresh worker, count one lost delta, and never let the
     half-line near a parser. *)
  let req =
    Request.make_estimate ~torn_attempt:1 ~id:"torn1" ~protocol:"sym_dmam" ~strategy:"honest"
      ~trials:3 ()
  in
  (match Client.request client req with
  | Ok (Request.Estimated { attempts; record; telemetry; _ }) ->
    if attempts <> 2 then fail "torn frame: attempts=%d, want 2 (one retry)" attempts;
    let want, _ = expected ~protocol:"sym_dmam" ~strategy:"honest" ~trials:3 ~fault:Fault.none in
    if net_of_metrics "torn retry" record <> net_of_metrics "oracle" want then
      fail "torn frame: retried record differs from the oracle";
    (match telemetry with
    | Some f ->
      if f.Request.fseq <> 1 then
        fail "torn frame: retry frame seq=%d, want 1 (fresh worker chain)" f.Request.fseq
    | None -> fail "torn frame: retry carries no telemetry frame")
  | Ok (Request.Rejected _) -> fail "torn frame: request rejected instead of retried"
  | Ok _ -> fail "torn frame: unexpected response shape"
  | Error e -> fail "torn frame: %s" e);
  let _, telem = fetch_telemetry client in
  let lost = jint telem [ "lost_deltas" ] in
  if lost <> 1 then fail "torn frame: lost_deltas=%d, want exactly 1" lost;
  Client.close client;
  stop_daemon pid;
  Printf.printf "phase C: torn response frame -> 1 counted lost delta, clean retry, no parse error\n%!";
  lost

(* --- report ----------------------------------------------------------------------- *)

let write_report ~out ~mode (a : phase_a) ~overhead ~torn_lost =
  let baseline_rps, telemetry_rps, overhead_pct = overhead in
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema_version\": 1,\n";
  p "  \"mode\": %S,\n" mode;
  p "  \"chaos\": {\"kill_rate\": 0.1, \"seed\": 7, \"forced_kills\": %d},\n" a.forced;
  p "  \"requests\": {\"sent\": %d, \"completed\": %d, \"retried\": %d, \"failed\": 0},\n" a.sent
    a.sent a.retried_reqs;
  p "  \"ledger_exact\": true,\n";
  p "  \"lost_deltas\": %d,\n" a.lost_deltas;
  p "  \"frames\": %d,\n" a.frames;
  p "  \"counters\": {%s},\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) a.net_totals));
  p "  \"trace\": {\"pids\": %d, \"events\": %d, \"stitched\": true},\n" a.trace_pids
    a.trace_events;
  p "  \"overhead\": {\"baseline_rps\": %.2f, \"telemetry_rps\": %.2f, \"overhead_pct\": %.2f},\n"
    baseline_rps telemetry_rps overhead_pct;
  p "  \"torn\": {\"attempts\": 2, \"lost_deltas\": %d, \"parse_errors\": 0}\n" torn_lost;
  p "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* --- main ------------------------------------------------------------------------- *)

let () =
  let smoke = ref false and out = ref "BENCH_telemetry.json" in
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
  let socket = Printf.sprintf "ids_telem_%d.sock" (Unix.getpid ()) in
  let trace_path = Printf.sprintf "ids_telem_%d_trace.json" (Unix.getpid ()) in
  let cleanup () =
    List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ socket; trace_path ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      if !smoke then begin
        let a =
          phase_a ~mode:"smoke" ~socket ~trace_path ~chaos:Chaos.none ~count:4 ~forced_every:3
            ~window:4 ~trials_for:(fun _ -> 3)
        in
        ignore (phase_c ~socket);
        if a.lost_deltas < a.forced then fail "forced kills not counted as lost deltas";
        print_endline "bench/telemetry smoke: OK"
      end
      else begin
        let trials_for = function "sym_dam" -> 4 | "gni" -> 8 | _ -> 16 in
        let a =
          phase_a ~mode:"full" ~socket ~trace_path ~chaos:(Chaos.make ~kill:0.1 ~seed:7 ())
            ~count:40 ~forced_every:10 ~window:8 ~trials_for
        in
        let overhead = phase_b ~socket ~count:40 ~window:8 ~trials_for ~cap_pct:3. in
        let torn_lost = phase_c ~socket in
        write_report ~out:!out ~mode:"full" a ~overhead ~torn_lost;
        print_endline "bench/telemetry: OK"
      end)
