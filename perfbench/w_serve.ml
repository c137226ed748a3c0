(* serve_mix: the ids-serve daemon, forked by the benchmark with the shipped
   defaults except two workers (one per core of a 2-core host), its socket and
   crash-safe run log (fsync on) in the benchmark's scratch directory. One
   client connection runs a closed loop with 4 requests in flight, round-
   robin over the seed-shuffled catalog at 16 trials per request, every 7th
   request faulted. Closed because the service's callers (ids_inspect,
   scripts) each wait for their reply. *)

module Json = Ids_obs.Json
module Rng = Ids_bignum.Rng
module Fault = Ids_network.Fault
module Runlog = Ids_engine.Runlog
module Server = Ids_serve.Server
module Client = Ids_serve.Client
module Request = Ids_serve.Request
module Catalog = Ids_serve.Catalog
module Supervisor = Ids_serve.Supervisor

let trials = 16
let window = 4
let workers = 2
let fault_every = 7
let fault = Fault.drop_only 0.1
let boot_reps = 11
let batch = 64
let scratch = ".perfbench_tmp"

let path name = Filename.concat scratch (Printf.sprintf "%s-%d" name (Unix.getpid ()))

let config ~telemetry =
  { Server.default with
    Server.socket = path "serve.sock";
    log_path = path "runs.log";
    telemetry;
    trace_path = (if telemetry then path "trace.json" else "");
    sup = { Supervisor.default with Supervisor.workers }
  }

(* --- daemon lifecycle ------------------------------------------------------------- *)

type daemon = { pid : int; client : Client.t; boot_s : float }

let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let rec until_connectable socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ok = (try Unix.connect fd (Unix.ADDR_UNIX socket); true with Unix.Unix_error _ -> false) in
  Unix.close fd;
  if not ok then begin
    Unix.sleepf 0.0005;
    until_connectable socket
  end

(* Set-up time: fork until the first Pong. The socket is probed at 0.5 ms
   granularity (Client.connect retries only every 50 ms). *)
let boot cfg =
  flush stdout;
  flush stderr;
  let t0 = Kit.now_ns () in
  match Unix.fork () with
  | 0 -> (
    match Server.run cfg with
    | Ok () -> Unix._exit 0
    | Error e ->
      Printf.eprintf "daemon: %s\n%!" e;
      Unix._exit 1)
  | pid ->
    live := pid :: !live;
    until_connectable cfg.Server.socket;
    let client =
      match Client.connect ~wait:10. cfg.Server.socket with
      | Ok c -> c
      | Error e -> failwith ("serve_mix: " ^ e)
    in
    (match Client.request client { Request.id = "boot"; op = Request.Ping; trace = None } with
    | Ok (Request.Pong _) -> ()
    | _ -> failwith "serve_mix: no pong from the daemon");
    { pid; client; boot_s = Kit.seconds_since t0 }

let stop d =
  Client.close d.client;
  Unix.kill d.pid Sys.sigterm;
  let _, st = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  match st with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "serve_mix: daemon did not drain cleanly on SIGTERM"

(* --- the request stream and its oracle ---------------------------------------------- *)

let schedule ~seed entries =
  let rng = Rng.create seed in
  let order = Array.init (Array.length entries) Fun.id in
  Rng.shuffle rng order;
  let phase = Rng.int rng fault_every in
  fun i ->
    let (e : Catalog.entry) = entries.(order.(i mod Array.length order)) in
    let faulted = (i + phase) mod fault_every = 0 in
    let req =
      Request.make_estimate
        ~fault:(if faulted then fault else Fault.none)
        ~id:(Printf.sprintf "r%d" i) ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy ~trials ()
    in
    (e, faulted, req)

(* In-process Catalog.execute_request for every (entry, fault) pairing. *)
let oracle entries =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun faulted ->
          match
            Catalog.execute_request ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy ~trials
              ~fault:(if faulted then fault else Fault.none)
          with
          | Ok r -> Hashtbl.replace tbl (e.Catalog.protocol, e.Catalog.strategy, faulted) r
          | Error m -> failwith ("serve_mix oracle: " ^ m))
        [ false; true ])
    entries;
  tbl

(* Telemetry workers embed their metrics window as the record's last field;
   the estimate itself must still be byte-equal. *)
let strip_metrics record =
  let marker = ",\"metrics\":" in
  let ml = String.length marker and rl = String.length record in
  let rec find i = if i + ml > rl then None else if String.sub record i ml = marker then Some i else find (i + 1) in
  match find 0 with Some i -> String.sub record 0 i ^ "}" | None -> record

type served = { latency_s : float; done_ns : int; nodes : int }

(* Closed loop: keep [window] requests in flight, send the next only when
   one completes, stop sending after [seconds] and drain. The first [keep]
   request/response pairs are returned for the codec timing. *)
let drive ?(keep = 0) d sched ~first ~seconds ~expected failed =
  let inflight = Hashtbl.create 8 in
  let next = ref first and out = ref [] and kept = ref [] and n_kept = ref 0 in
  let t0 = Kit.now_ns () in
  let send () =
    let e, faulted, req = sched !next in
    Hashtbl.replace inflight req.Request.id (Kit.now_ns (), e, faulted, req);
    incr next;
    match Client.send d.client req with Ok () -> () | Error m -> failwith ("serve_mix send: " ^ m)
  in
  let continue () = Kit.seconds_since t0 < seconds in
  while Hashtbl.length inflight < window && continue () do send () done;
  while Hashtbl.length inflight > 0 do
    let resp = match Client.recv d.client with Ok r -> r | Error m -> failwith ("serve_mix recv: " ^ m) in
    let now = Kit.now_ns () in
    let id = Request.response_id resp in
    (match Hashtbl.find_opt inflight id with
    | None -> failwith (Printf.sprintf "serve_mix: response for unknown id %S" id)
    | Some (t_send, (e : Catalog.entry), faulted, req) ->
      Hashtbl.remove inflight id;
      let ok =
        match resp with
        | Request.Estimated { record; _ } ->
          strip_metrics record = Hashtbl.find expected (e.Catalog.protocol, e.Catalog.strategy, faulted)
        | _ -> false
      in
      if not ok then begin
        incr failed;
        Printf.printf "MISMATCH %s: %s\n" id (Request.response_to_json resp)
      end;
      if !n_kept < keep then begin
        kept := (req, resp) :: !kept;
        incr n_kept
      end;
      out := { latency_s = float_of_int (now - t_send) *. 1e-9; done_ns = now; nodes = trials * e.Catalog.n } :: !out);
    if continue () then send ()
  done;
  (List.rev !out, !next, !kept)

(* Throughput over disjoint runs of [batch] consecutive completions. *)
let batch_rates served =
  let a = Array.of_list served in
  let rec go i acc =
    if i + batch >= Array.length a then acc
    else begin
      let dt = float_of_int (a.(i + batch).done_ns - a.(i).done_ns) *. 1e-9 in
      let nodes = ref 0 in
      for j = i + 1 to i + batch do nodes := !nodes + a.(j).nodes done;
      go (i + batch) ((float_of_int batch /. dt, float_of_int !nodes /. dt) :: acc)
    end
  in
  match go 0 [] with
  | [] ->
    (* Too few completions for one batch (smoke): the whole run is one. *)
    let n = Array.length a in
    let dt = float_of_int (a.(n - 1).done_ns - a.(0).done_ns) *. 1e-9 in
    let dt = if dt > 0. then dt else 1e-9 in
    [ (float_of_int n /. dt, float_of_int (Array.fold_left (fun s x -> s + x.nodes) 0 a) /. dt) ]
  | rs -> rs

let with_cleanup f =
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  let remove () =
    kill_live ();
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path "serve.sock"; path "runs.log"; path "trace.json"; path "append.log" ];
    try Sys.rmdir scratch with Sys_error _ -> ()
  in
  Fun.protect ~finally:remove f

(* Boot [boot_reps] daemons one after another (they share one socket path),
   0.1 s apart so the median spans more than one moment of a shared host's
   speed, and keep the last one running. *)
let boots cfg =
  let rec go i acc =
    let d = boot cfg in
    if i = boot_reps then (d, List.rev (d.boot_s :: acc))
    else begin
      stop d;
      Unix.sleepf 0.1;
      go (i + 1) (d.boot_s :: acc)
    end
  in
  go 1 []

let untraced ~seed ~seconds =
  with_cleanup (fun () ->
      let entries = Array.of_list (Catalog.entries ()) in
      let d, boot_s = boots (config ~telemetry:false) in
      let expected = oracle entries in
      let failed = ref 0 in
      let served, _, _ = drive d (schedule ~seed entries) ~first:0 ~seconds ~expected failed in
      stop d;
      let rates = batch_rates served in
      let rps = Kit.median (List.map fst rates) in
      let lat = List.map (fun s -> s.latency_s) served in
      let attempted = List.length served in
      Printf.printf "serve_mix: %d requests, %d batches, failed_ratio %g\n" attempted (List.length rates)
        (float_of_int !failed /. float_of_int attempted);
      { Kit.attempted;
        failed = !failed;
        metrics =
          [ ("setup_s", Kit.median boot_s);
            ("nodes_per_s", Kit.median (List.map snd rates));
            ("peak_rss_mb", Kit.peak_rss_mb ());
            ("trials_per_s", float_of_int trials *. rps);
            ("requests_per_s", rps);
            ("latency_p50_ms", 1000. *. Kit.median lat);
            ("latency_p99_ms", 1000. *. Kit.tail_quantile 0.99 lat)
          ];
        samples = [ ("boots", boot_reps); ("requests", attempted); ("batches", List.length rates) ]
      })

(* --- traced run --------------------------------------------------------------------- *)

let member_path j keys =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys

let stats_doc d =
  let req = { Request.id = "stats"; op = Request.Stats Request.Json_full; trace = None } in
  match Client.request d.client req with
  | Ok (Request.Stats_reply { body = Some body; _ }) -> (
    match Json.parse body with Ok j -> j | Error e -> failwith ("serve_mix stats: " ^ e))
  | _ -> failwith "serve_mix: no stats document"

(* Request-weighted mean of one latency table over every protocol. *)
let weighted_mean doc table =
  let protos = Option.value (Option.bind (Json.member "protocols" doc) Json.to_list) ~default:[] in
  let num j keys = Option.value (Option.bind (member_path j keys) Json.to_float) ~default:0. in
  let w, s =
    List.fold_left
      (fun (w, s) p ->
        let c = num p [ table; "count" ] in
        (w +. c, s +. (c *. num p [ table; "mean" ])))
      (0., 0.) protos
  in
  if w = 0. then 0. else s /. w

let service_counter doc name =
  Option.value (Option.bind (member_path doc [ "service"; name ]) Json.to_float) ~default:0.

(* Client-side codec cost: encode a request, decode its response line. *)
let codec_us pairs =
  let lines = List.map (fun (q, r) -> (q, Request.response_to_json r)) pairs in
  let _, s =
    Kit.time (fun () ->
        List.iter (fun (q, line) -> ignore (Request.to_json q); ignore (Request.response_of_line line)) lines)
  in
  1e6 *. s /. float_of_int (List.length lines)

(* One synced framed append per served record, as the daemon does. *)
let append_us records =
  let records = List.filteri (fun i _ -> i < 64) records in
  let p = path "append.log" in
  match Runlog.Framed.create ~sync:true p with
  | Error e -> failwith ("serve_mix append: " ^ e)
  | Ok w ->
    let _, s = Kit.time (fun () -> List.iter (Runlog.Framed.write w) records) in
    Runlog.Framed.close w;
    Sys.remove p;
    1e6 *. s /. float_of_int (List.length records)

let traced ~seed ~seconds =
  with_cleanup (fun () ->
      let entries = Array.of_list (Catalog.entries ()) in
      let sched = schedule ~seed entries in
      let d, boot_s = boots (config ~telemetry:false) in
      let expected = oracle entries in
      let failed = ref 0 in
      let plain, next, _ = drive d sched ~first:0 ~seconds:(seconds /. 2.) ~expected failed in
      stop d;
      let cfg = config ~telemetry:true in
      let d = boot cfg in
      let served, _, pairs = drive ~keep:2000 d sched ~first:next ~seconds:(seconds /. 2.) ~expected failed in
      let doc = stats_doc d in
      stop d;
      let events =
        match Ids_obs.Trace.events_of_file cfg.Server.trace_path with
        | Ok evs -> List.length evs
        | Error e -> failwith ("serve_mix trace file: " ^ e)
      in
      let rps xs = Kit.median (List.map fst (batch_rates xs)) in
      let overhead = 100. *. ((rps plain /. rps served) -. 1.) in
      let queue = weighted_mean doc "queue_ms" and run = weighted_mean doc "run_ms" in
      let total = weighted_mean doc "total_ms" in
      let client = 1000. *. Kit.mean (List.map (fun s -> s.latency_s) served) in
      let codec = codec_us pairs in
      let records =
        List.filter_map (function _, Request.Estimated { record; _ } -> Some record | _ -> None) pairs
      in
      let append = append_us records in
      let rows =
        [ { Kit.layer = "Ids_serve"; what = "supervisor queue wait (daemon mean)"; self_s = queue /. 1000.; count = List.length served };
          { layer = "Ids_proof"; what = "worker run: Catalog.execute_request"; self_s = run /. 1000.; count = List.length served };
          { layer = "Ids_serve"; what = "daemon total - queue - run (pipe, log)"; self_s = (total -. queue -. run) /. 1000.; count = List.length served };
          { layer = "client"; what = "socket hop + codec (client - daemon)"; self_s = (client -. total) /. 1000.; count = List.length served }
        ]
      in
      let ratio = Kit.layer_table ~title:"serve_mix traced daemon, mean request" ~base:(client /. 1000.) rows in
      Printf.printf "tracing overhead: %+.2f%% (untraced vs telemetry daemon req/s); trace file: %d events\n" overhead
        events;
      { Kit.attempted = List.length plain + List.length served;
        failed = !failed;
        metrics =
          [ ("serve.boot_s", Kit.median boot_s);
            ("serve.worker_run_ms", run);
            ("serve.queue_wait_ms", queue);
            ("serve.overhead_ms", total -. queue -. run);
            ("request.codec_us", codec);
            ("runlog.append_us", append);
            ("serve.retried", service_counter doc "retried");
            ("serve.shed", service_counter doc "shed");
            ("serve.worker_crashes", service_counter doc "worker_crashes");
            ("trace.overhead_pct", overhead);
            ("trace.layer_sum_ratio", ratio)
          ];
        samples = [ ("boots", boot_reps); ("plain_requests", List.length plain); ("traced_requests", List.length served) ]
      })
