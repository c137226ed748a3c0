module Obs = Ids_obs.Obs
module Trace = Ids_obs.Trace
module Runlog = Ids_engine.Runlog

let c_accepted = Obs.Counter.make "serve.accepted"
let c_shed = Obs.Counter.make "serve.shed"
let c_retried = Obs.Counter.make "serve.retried"
let c_timed_out = Obs.Counter.make "serve.timed_out"
let c_crashes = Obs.Counter.make "serve.worker_crashes"
let c_lost = Obs.Counter.make "telemetry.lost_deltas"
let c_log_records = Obs.Counter.make "serve.log_records"
let c_log_syncs = Obs.Counter.make "serve.log_syncs"
let h_queue = Obs.Histo.make "serve.queue_depth"
let h_latency = Obs.Histo.make "serve.latency_ms"

type config = {
  socket : string;
  sup : Supervisor.config;
  chaos : Chaos.spec;
  log_path : string;
  log_sync : bool;
  verbose : bool;
  telemetry : bool;
  trace_path : string;
}

(* [telemetry] defaults off: instrumented workers embed a [metrics] object
   in their records, and the E18 byte-identity pin compares records against
   an uninstrumented in-process oracle. *)
let default =
  { socket = "ids_serve.sock";
    sup = Supervisor.default;
    chaos = Chaos.none;
    log_path = "ids_serve_runs.jsonl";
    log_sync = true;
    verbose = false;
    telemetry = false;
    trace_path = ""
  }

(* --- environment knobs ----------------------------------------------------------- *)

let getenv name = match Sys.getenv_opt name with None | Some "" -> None | some -> some

let int_env name default =
  match getenv name with
  | None -> default
  | Some v -> (
    match int_of_string_opt (String.trim v) with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "%s: expected an integer, got %S" name v))

(* Millisecond knobs on the wire, seconds internally. *)
let ms_env name default =
  match getenv name with
  | None -> default
  | Some v -> (
    match float_of_string_opt (String.trim v) with
    | Some ms -> ms /. 1000.
    | None -> invalid_arg (Printf.sprintf "%s: expected milliseconds, got %S" name v))

let bool_env name default =
  match getenv name with None -> default | Some v -> not (String.trim v = "0")

let of_env ?(base = default) () =
  let sup =
    { base.sup with
      Supervisor.workers = int_env "IDS_SERVE_WORKERS" base.sup.Supervisor.workers;
      queue_bound = int_env "IDS_SERVE_QUEUE" base.sup.Supervisor.queue_bound;
      max_attempts = int_env "IDS_SERVE_RETRIES" base.sup.Supervisor.max_attempts;
      restart_budget = int_env "IDS_SERVE_RESTARTS" base.sup.Supervisor.restart_budget;
      deadline = ms_env "IDS_SERVE_DEADLINE_MS" base.sup.Supervisor.deadline;
      backoff_base = ms_env "IDS_SERVE_BACKOFF_MS" base.sup.Supervisor.backoff_base
    }
  in
  { socket = Option.value (getenv "IDS_SERVE_SOCKET") ~default:base.socket;
    sup;
    chaos = Option.value (Chaos.of_env ()) ~default:base.chaos;
    log_path =
      (match Sys.getenv_opt "IDS_SERVE_LOG" with None -> base.log_path | Some p -> p);
    log_sync = bool_env "IDS_SERVE_SYNC" base.log_sync;
    verbose = bool_env "IDS_SERVE_VERBOSE" base.verbose;
    telemetry = bool_env "IDS_SERVE_TELEMETRY" base.telemetry;
    trace_path =
      (match Sys.getenv_opt "IDS_SERVE_TRACE" with None -> base.trace_path | Some p -> p)
  }

(* --- the event loop -------------------------------------------------------------- *)

type client = { cfd : Unix.file_descr; cbuf : Buffer.t; mutable cclosed : bool }

(* Per-request trace state: which trace the request belongs to, where its
   current attempt is running, and the events stitched so far (server-side
   queue-wait/attempt spans plus the worker's shipped spans, re-based). *)
type rtrace = {
  tr_id : string;
  mutable tr_span : int;  (* parent-span id handed to the current attempt *)
  mutable tr_wid : int;  (* -1 when not assigned *)
  mutable tr_assign_ns : int;
  mutable tr_submit_ns : int;
  mutable tr_queue_s : float;  (* cumulative queue wait over attempts *)
  mutable tr_run_s : float;  (* last completed attempt's worker time *)
  mutable tr_evs : Trace.ev list;  (* newest first *)
}

type pending = { preq : Request.t; pclient : client; pt0 : float; ptr : rtrace }

(* Monotonic seconds: deadlines must not jump with wall-clock adjustments. *)
let now () = float_of_int (Obs.now_ns ()) /. 1e9

(* The longest request line a client may send, newline excluded. Real
   requests are a few hundred bytes; the cap bounds what one client can
   make the daemon buffer. *)
let max_request_line = 65_536

(* Drain a non-blocking fd into [buf]: the complete lines, in order, plus
   the connection's state. At most [max_request_line] bytes are read per
   call, so one flooding client cannot starve the loop or grow the line
   list; what is left stays in the socket for the next pass. A line (or
   an unterminated tail) longer than the cap ends the drain with
   [`Overflow]. *)
let drain_lines fd buf =
  let chunk = Bytes.create 8192 in
  let lines = ref [] in
  let rec fill budget =
    if budget <= 0 then `Open
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> `Eof
      | n ->
        let data = Bytes.sub_string chunk 0 n in
        let rec split o =
          match String.index_from_opt data o '\n' with
          | Some i ->
            Buffer.add_substring buf data o (i - o);
            let too_long = Buffer.length buf > max_request_line in
            if not too_long then lines := Buffer.contents buf :: !lines;
            Buffer.clear buf;
            if too_long then `Overflow else split (i + 1)
          | None ->
            Buffer.add_substring buf data o (n - o);
            if Buffer.length buf > max_request_line then `Overflow else fill (budget - n)
        in
        split 0
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Open
      | exception Unix.Unix_error _ -> `Eof
  in
  let state = fill max_request_line in
  (List.rev !lines, state)

let run cfg =
  match Supervisor.validate cfg.sup with
  | Error e -> Error ("invalid supervisor config: " ^ e)
  | Ok scfg -> (
    let log_result =
      if cfg.log_path = "" then Ok None
      else
        match Runlog.Framed.create ~sync:cfg.log_sync cfg.log_path with
        | Ok w -> Ok (Some w)
        | Error e -> Error (Printf.sprintf "run log %s: %s" cfg.log_path e)
    in
    match log_result with
    | Error e -> Error e
    | Ok log -> (
      let logf fmt =
        Printf.ksprintf
          (fun s ->
            if cfg.verbose then
              Printf.eprintf "[ids_serve %.3f] %s\n%!" (float_of_int (Obs.now_ns ()) /. 1e9) s)
          fmt
      in
      let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let bound =
        try
          (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
          Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
          Unix.listen listen_fd 64;
          Unix.set_nonblock listen_fd;
          Ok ()
        with Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "cannot listen on %s: %s" cfg.socket (Unix.error_message e))
      in
      match bound with
      | Error e ->
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        Option.iter Runlog.Framed.close log;
        Error e
      | Ok () ->
        let sup = Supervisor.create scfg in
        let workers = Array.make scfg.Supervisor.workers None in
        let pid2wid = Hashtbl.create 16 in
        let clients = ref [] in
        let pending : (string, pending) Hashtbl.t = Hashtbl.create 64 in
        let resp_by_id : (string, Request.response) Hashtbl.t = Hashtbl.create 64 in
        let events : Supervisor.event Queue.t = Queue.create () in
        let post ev = Queue.add ev events in
        let stopped = ref false in
        let listening = ref true in
        let drain_posted = ref false in
        let boot = now () in

        (* The telemetry plane: worker frames fold here; request latencies
           and trace events are recorded here regardless of [telemetry], so
           the stats endpoint always has latency tables (the ledger stays
           empty unless workers ship deltas). *)
        let reg = Telemetry.create ~workers:scfg.Supervisor.workers in
        let tracing = cfg.trace_path <> "" in
        let trace_buf : Trace.ev list ref = ref [] in
        let trace_cap = 65536 in
        let trace_len = ref 0 in
        let trace_dropped = ref 0 in
        let keep_evs evs =
          if tracing then
            List.iter
              (fun ev ->
                if !trace_len >= trace_cap then incr trace_dropped
                else begin
                  trace_buf := ev :: !trace_buf;
                  incr trace_len
                end)
              evs
        in
        let span_ctr = ref 0 in
        let next_span () =
          incr span_ctr;
          !span_ctr
        in
        let trace_ctr = ref 0 in
        let mint_trace_id () =
          incr trace_ctr;
          Printf.sprintf "t%d-%d" (Unix.getpid ()) !trace_ctr
        in
        let mk_rtrace req =
          let tr_id =
            match req.Request.trace with Some (tid, _) -> tid | None -> mint_trace_id ()
          in
          { tr_id;
            tr_span = 0;
            tr_wid = -1;
            tr_assign_ns = 0;
            tr_submit_ns = Obs.now_ns ();
            tr_queue_s = 0.;
            tr_run_s = 0.;
            tr_evs = []
          }
        in
        let ev ~name ~pid ~tid ~ts_ns ~dur_ns args =
          { Trace.ename = name; epid = pid; etid = tid; ets_ns = ts_ns; edur_ns = dur_ns;
            eargs = args
          }
        in
        let self_pid = Unix.getpid () in

        (* Signals only write one byte to the self-pipe; all real work happens
           in the select loop. *)
        let sp_r, sp_w = Unix.pipe () in
        Unix.set_nonblock sp_r;
        Unix.set_nonblock sp_w;
        let notify b =
          try ignore (Unix.write_substring sp_w b 0 1) with Unix.Unix_error _ -> ()
        in
        let prev_chld = Sys.signal Sys.sigchld (Sys.Signal_handle (fun _ -> notify "c")) in
        let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> notify "t")) in
        let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> notify "t")) in
        let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in

        let close_client c =
          if not c.cclosed then begin
            c.cclosed <- true;
            (try Unix.close c.cfd with Unix.Unix_error _ -> ());
            clients := List.filter (fun c' -> c' != c) !clients
          end
        in
        let respond c resp =
          if not c.cclosed then begin
            let s = Request.response_to_json resp ^ "\n" in
            let len = String.length s in
            let rec put o tries =
              if o < len then
                match Unix.write_substring c.cfd s o (len - o) with
                | n -> put (o + n) tries
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  if tries = 0 then close_client c
                  else begin
                    (* Client not reading: wait briefly for buffer space, with a
                       bound so one stuck client cannot wedge the daemon. *)
                    ignore (Unix.select [] [ c.cfd ] [] 0.05);
                    put o (tries - 1)
                  end
                | exception Unix.Unix_error _ -> close_client c
            in
            put 0 100
          end
        in

        let extra_close () =
          let acc = ref [ listen_fd; sp_r; sp_w ] in
          List.iter (fun c -> acc := c.cfd :: !acc) !clients;
          Array.iter
            (function
              | Some w -> acc := Pool.read_fd w :: Pool.write_fd w :: !acc
              | None -> ())
            workers;
          !acc
        in
        let spawn_into wid =
          let w =
            Pool.spawn ~chaos:cfg.chaos ~telemetry:cfg.telemetry ~extra_close:(extra_close ())
              ~wid ()
          in
          workers.(wid) <- Some w;
          Hashtbl.replace pid2wid (Pool.pid w) wid;
          logf "worker %d spawned (pid %d)" wid (Pool.pid w)
        in

        let protocol_of p =
          match p.preq.Request.op with
          | Request.Estimate { protocol; _ } -> protocol
          | Request.Stats _ | Request.Ping -> "-"
        in
        (* Close the books on one request: the root span and the
           per-protocol latency tables. *)
        let finalize p ~ok ~attempts =
          let tr = p.ptr in
          let now_ns = Obs.now_ns () in
          keep_evs
            [ ev ~name:"serve.request" ~pid:self_pid ~tid:0 ~ts_ns:tr.tr_submit_ns
                ~dur_ns:(now_ns - tr.tr_submit_ns)
                [ ("trace_id", tr.tr_id);
                  ("protocol", protocol_of p);
                  ("attempts", string_of_int attempts);
                  ("outcome", (if ok then "ok" else "rejected"))
                ]
            ];
          Telemetry.on_request reg ~protocol:(protocol_of p) ~attempts ~queue_s:tr.tr_queue_s
            ~run_s:tr.tr_run_s
            ~total_s:(float_of_int (now_ns - tr.tr_submit_ns) /. 1e9)
            ~ok
        in

        (* Group commit: the records of every request completed in one
           event-loop pass go to the log as one batch (one write, one
           fsync); only then does any of those clients get its reply, in
           completion order. *)
        let log_records = ref 0 and log_syncs = ref 0 in
        let commit req_ids =
          let finished =
            List.filter_map
              (fun req_id ->
                match Hashtbl.find_opt pending req_id with
                | None -> None
                | Some p ->
                  Hashtbl.remove pending req_id;
                  let resp =
                    match Hashtbl.find_opt resp_by_id req_id with
                    | Some r ->
                      Hashtbl.remove resp_by_id req_id;
                      r
                    | None ->
                      Request.Rejected { id = req_id; reject = Request.Failed "response lost" }
                  in
                  Some (p, resp))
              req_ids
          in
          let records =
            List.filter_map
              (function _, Request.Estimated { record; _ } -> Some record | _ -> None)
              finished
          in
          (match log with
          | Some lw when records <> [] -> (
            try
              Runlog.Framed.write_batch lw records;
              let k = List.length records in
              log_records := !log_records + k;
              Obs.Counter.add c_log_records k;
              if cfg.log_sync then begin
                incr log_syncs;
                Obs.Counter.add c_log_syncs 1
              end
            with Unix.Unix_error (e, _, _) ->
              Printf.eprintf "[ids_serve] run log write failed: %s\n%!" (Unix.error_message e))
          | _ -> ());
          List.iter
            (fun (p, resp) ->
              Obs.Histo.observe h_latency (int_of_float ((now () -. p.pt0) *. 1000.));
              let ok, attempts =
                match resp with
                | Request.Estimated { attempts; _ } -> (true, attempts)
                | _ -> (false, 1)
              in
              finalize p ~ok ~attempts;
              respond p.pclient resp)
            finished
        in
        let reject req_id rej =
          match Hashtbl.find_opt pending req_id with
          | None -> ()
          | Some p ->
            Hashtbl.remove pending req_id;
            Hashtbl.remove resp_by_id req_id;
            finalize p ~ok:false ~attempts:1;
            respond p.pclient (Request.Rejected { id = req_id; reject = rej })
        in
        (* Completions wait for the end of the pass; see [process_all]. *)
        let completed = ref [] in
        let do_action = function
          | Supervisor.Assign { worker; req; attempt; deadline = _; queued_for } -> (
            match (workers.(worker), Hashtbl.find_opt pending req) with
            | Some w, Some p ->
              let tr = p.ptr in
              let now_ns = Obs.now_ns () in
              let wait_ns = int_of_float (queued_for *. 1e9) in
              tr.tr_queue_s <- tr.tr_queue_s +. queued_for;
              keep_evs
                [ ev ~name:"serve.queue_wait" ~pid:self_pid ~tid:0 ~ts_ns:(now_ns - wait_ns)
                    ~dur_ns:wait_ns
                    [ ("trace_id", tr.tr_id); ("attempt", string_of_int attempt) ]
                ];
              tr.tr_span <- next_span ();
              tr.tr_wid <- worker;
              tr.tr_assign_ns <- now_ns;
              (* A send to a just-died worker fails silently; the Crashed event
                 already en route schedules the retry. *)
              ignore
                (Pool.send w ~attempt
                   { p.preq with Request.trace = Some (tr.tr_id, tr.tr_span) }
                  : bool)
            | _ -> ())
          | Supervisor.Spawn wid ->
            spawn_into wid;
            post (Supervisor.Spawned wid)
          | Supervisor.Kill { worker; req } -> (
            match workers.(worker) with
            | Some w ->
              logf "deadline: killing worker %d (request %s)" worker req;
              Pool.kill w
            | None -> ())
          | Supervisor.Complete { req; attempts = _ } -> completed := req :: !completed
          | Supervisor.Reject { req; reject = rej } -> reject req rej
          | Supervisor.Stopped -> stopped := true
        in
        let bump before after =
          let d get c =
            let d = get after - get before in
            if d > 0 then Obs.Counter.add c d
          in
          d (fun (x : Supervisor.counters) -> x.accepted) c_accepted;
          d (fun x -> x.shed) c_shed;
          d (fun x -> x.retried) c_retried;
          d (fun x -> x.timed_out) c_timed_out;
          d (fun x -> x.worker_crashes) c_crashes
        in
        (* Dispatch before disk: every Assign/Spawn/Kill/Reject of the pass
           runs first, so a worker that just finished gets its next request
           before the pass's completions are logged and answered. *)
        let process_all () =
          while not (Queue.is_empty events) do
            let ev = Queue.take events in
            let before = Supervisor.counters sup in
            let actions = Supervisor.step sup ~now:(now ()) ev in
            let after = Supervisor.counters sup in
            bump before after;
            if after.accepted > before.accepted then
              Obs.Histo.observe h_queue (Supervisor.queue_depth sup);
            List.iter do_action actions
          done;
          let reqs = List.rev !completed in
          completed := [];
          commit reqs
        in

        let handle_request_line c line =
          match Request.of_line line with
          | Error e -> respond c (Request.Rejected { id = ""; reject = Request.Bad_request e })
          | Ok (req, _) -> (
            match req.Request.op with
            | Request.Ping -> respond c (Request.Pong { id = req.Request.id })
            | Request.Stats fmt ->
              let service =
                Supervisor.stats sup
                @ [ ("log_records", !log_records); ("log_syncs", !log_syncs) ]
              in
              let stats =
                service
                @ [ ("telemetry_frames", Telemetry.frames reg);
                    ("lost_deltas", Telemetry.lost_deltas reg)
                  ]
              in
              let uptime_s = now () -. boot in
              let body =
                match fmt with
                | Request.Basic -> None
                | Request.Json_full -> Some (Telemetry.to_json reg ~service ~uptime_s)
                | Request.Prom -> Some (Telemetry.to_prometheus reg ~service ~uptime_s)
              in
              respond c (Request.Stats_reply { id = req.Request.id; stats; body })
            | Request.Estimate { protocol; strategy; _ } ->
              let id = req.Request.id in
              if Hashtbl.mem pending id then
                respond c
                  (Request.Rejected
                     { id; reject = Request.Bad_request "duplicate in-flight id" })
              else (
                (* Catch unknown workloads here rather than burning worker
                   attempts on them. *)
                match Catalog.find ~protocol ~strategy with
                | Error e -> respond c (Request.Rejected { id; reject = Request.Bad_request e })
                | Ok _ ->
                  Hashtbl.replace pending id
                    { preq = req; pclient = c; pt0 = now (); ptr = mk_rtrace req };
                  post (Supervisor.Submit id)))
        in
        let read_client c =
          let lines, state = drain_lines c.cfd c.cbuf in
          List.iter (handle_request_line c) lines;
          match state with
          | `Open -> ()
          | `Eof -> close_client c
          | `Overflow ->
            respond c
              (Request.Rejected
                 { id = "";
                   reject =
                     Request.Bad_request
                       (Printf.sprintf "request line longer than %d bytes" max_request_line)
                 });
            close_client c
        in
        let accept_clients () =
          let rec go () =
            match Unix.accept ~cloexec:false listen_fd with
            | cfd, _ ->
              Unix.set_nonblock cfd;
              clients := { cfd; cbuf = Buffer.create 256; cclosed = false } :: !clients;
              go ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error _ -> ()
          in
          if !listening then go ()
        in

        (* Worker lines: exit flushes fold straight into the registry;
           Estimated responses fold their frame (exactly once per delivered
           line) and stitch the worker's shipped spans into the request's
           trace, re-based from the worker's epoch anchor back onto the
           shared machine clock. *)
        let handle_worker_line wid line =
          match Request.response_of_line line with
          | Ok (Request.Flush f) ->
            logf "worker %d: exit flush (seq %d)" wid f.Request.fseq;
            Telemetry.on_flush reg ~wid f
          | Ok resp ->
            (match resp with
            | Request.Estimated { id; telemetry = Some f; _ } ->
              Telemetry.on_frame reg ~wid f;
              (match Hashtbl.find_opt pending id with
              | Some p ->
                let tr = p.ptr in
                tr.tr_run_s <- float_of_int (Obs.now_ns () - tr.tr_assign_ns) /. 1e9;
                tr.tr_wid <- -1;
                keep_evs
                  (List.map
                     (fun s ->
                       Trace.ev_of_span ~pid:f.Request.fpid ~base_ns:f.Request.fepoch_ns
                         ~args:
                           [ ("trace_id", tr.tr_id);
                             ("parent_span", string_of_int tr.tr_span)
                           ]
                         s)
                     f.Request.fspans)
              | None -> ())
            | Request.Estimated { id; telemetry = None; _ } -> (
              match Hashtbl.find_opt pending id with
              | Some p ->
                p.ptr.tr_run_s <- float_of_int (Obs.now_ns () - p.ptr.tr_assign_ns) /. 1e9;
                p.ptr.tr_wid <- -1
              | None -> ())
            | _ -> ());
            Hashtbl.replace resp_by_id (Request.response_id resp) resp;
            post (Supervisor.Done wid)
          | Error e -> logf "worker %d: unparsable response (%s)" wid e
        in
        let worker_dead wid =
          match workers.(wid) with
          | None -> ()
          | Some w ->
            (* Salvage any response that outran the death (deadline-kill race):
               its Done must precede the Crashed. *)
            (match Pool.read w with
            | `Lines lines -> List.iter (handle_worker_line wid) lines
            | `Eof -> ());
            (* Any request still assigned here whose response was not
               salvaged died with its telemetry window: count the gap. *)
            Hashtbl.iter
              (fun req_id p ->
                let tr = p.ptr in
                if tr.tr_wid = wid && not (Hashtbl.mem resp_by_id req_id) then begin
                  tr.tr_wid <- -1;
                  if cfg.telemetry then begin
                    Telemetry.on_lost reg ~wid;
                    Obs.Counter.add c_lost 1
                  end;
                  let now_ns = Obs.now_ns () in
                  keep_evs
                    [ ev ~name:"serve.attempt_crashed" ~pid:self_pid ~tid:0
                        ~ts_ns:tr.tr_assign_ns
                        ~dur_ns:(now_ns - tr.tr_assign_ns)
                        [ ("trace_id", tr.tr_id); ("wid", string_of_int wid) ]
                    ]
                end)
              pending;
            Hashtbl.remove pid2wid (Pool.pid w);
            Pool.shutdown w;
            workers.(wid) <- None;
            logf "worker %d died (pid %d)" wid (Pool.pid w);
            post (Supervisor.Crashed wid)
        in
        let read_worker w =
          match Pool.read w with
          | `Lines lines -> List.iter (handle_worker_line (Pool.wid w)) lines
          | `Eof -> worker_dead (Pool.wid w)
        in
        let rec reap () =
          match Unix.waitpid [ Unix.WNOHANG ] (-1) with
          | 0, _ -> ()
          | pid, _ ->
            (match Hashtbl.find_opt pid2wid pid with
            | Some wid -> worker_dead wid
            | None -> () (* already handled via pipe EOF *));
            reap ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
        in
        let request_drain () =
          if not !drain_posted then begin
            drain_posted := true;
            logf "drain requested";
            if !listening then begin
              listening := false;
              (try Unix.close listen_fd with Unix.Unix_error _ -> ());
              try Unix.unlink cfg.socket with Unix.Unix_error _ -> ()
            end;
            post Supervisor.Drain
          end
        in
        let read_selfpipe () =
          let chunk = Bytes.create 64 in
          let rec go () =
            match Unix.read sp_r chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
              for i = 0 to n - 1 do
                match Bytes.get chunk i with
                | 'c' -> reap ()
                | 't' -> request_drain ()
                | _ -> ()
              done;
              go ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error _ -> ()
          in
          go ()
        in

        (* The initial pool: Supervisor.create starts every slot Idle. *)
        for wid = 0 to scfg.Supervisor.workers - 1 do
          spawn_into wid
        done;
        logf "listening on %s (%d workers, chaos %s)" cfg.socket scfg.Supervisor.workers
          (Chaos.to_string cfg.chaos);

        let worker_fd_pairs () =
          Array.fold_left
            (fun acc -> function Some w -> (Pool.read_fd w, w) :: acc | None -> acc)
            [] workers
        in
        while not !stopped do
          let timeout =
            match Supervisor.next_wakeup sup ~now:(now ()) with
            | Some s -> Float.min 0.25 (Float.max 0.001 s)
            | None -> 0.25
          in
          let wpairs = worker_fd_pairs () in
          let rfds =
            (if !listening then [ listen_fd ] else [])
            @ (sp_r :: List.map fst wpairs)
            @ List.map (fun c -> c.cfd) !clients
          in
          (match Unix.select rfds [] [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
            List.iter
              (fun fd ->
                if fd = sp_r then read_selfpipe ()
                else if !listening && fd = listen_fd then accept_clients ()
                else
                  (* Re-resolve: an earlier handler may have closed this fd. *)
                  match
                    List.find_opt
                      (fun (rfd, w) ->
                        rfd = fd
                        &&
                        match workers.(Pool.wid w) with
                        | Some cur -> cur == w
                        | None -> false)
                      wpairs
                  with
                  | Some (_, w) -> read_worker w
                  | None -> (
                    match List.find_opt (fun c -> c.cfd = fd && not c.cclosed) !clients with
                    | Some c -> read_client c
                    | None -> ()))
              ready);
          post Supervisor.Tick;
          process_all ()
        done;

        (* Drained: EOF the workers' request pipes (clean exit); telemetry
           workers answer with a final Flush frame first, so keep the
           response pipes open and fold those before closing up. *)
        Array.iter (function Some w -> Pool.close_writer w | None -> ()) workers;
        let flush_deadline = now () +. 5. in
        let rec collect_flushes () =
          let wpairs = worker_fd_pairs () in
          if wpairs <> [] && now () < flush_deadline then begin
            (match Unix.select (List.map fst wpairs) [] [] 0.25 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | ready, _, _ ->
              List.iter
                (fun fd ->
                  match List.find_opt (fun (rfd, _) -> rfd = fd) wpairs with
                  | Some (_, w) -> (
                    match Pool.read w with
                    | `Lines lines -> List.iter (handle_worker_line (Pool.wid w)) lines
                    | `Eof ->
                      Pool.shutdown w;
                      workers.(Pool.wid w) <- None)
                  | None -> ())
                ready);
            collect_flushes ()
          end
        in
        if cfg.telemetry then collect_flushes ();
        Array.iter (function Some w -> Pool.shutdown w | None -> ()) workers;
        let rec reap_all () =
          match Unix.waitpid [] (-1) with
          | _ -> reap_all ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap_all ()
        in
        reap_all ();
        if tracing then begin
          (match Trace.export_events_file cfg.trace_path (List.rev !trace_buf) with
          | () ->
            logf "trace: %d events written to %s%s" !trace_len cfg.trace_path
              (if !trace_dropped > 0 then Printf.sprintf " (%d dropped)" !trace_dropped else "")
          | exception Sys_error e ->
            Printf.eprintf "[ids_serve] trace export failed: %s\n%!" e)
        end;
        List.iter close_client !clients;
        if !listening then begin
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          try Unix.unlink cfg.socket with Unix.Unix_error _ -> ()
        end;
        (try Unix.close sp_r with Unix.Unix_error _ -> ());
        (try Unix.close sp_w with Unix.Unix_error _ -> ());
        Option.iter Runlog.Framed.close log;
        Sys.set_signal Sys.sigchld prev_chld;
        Sys.set_signal Sys.sigterm prev_term;
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigpipe prev_pipe;
        logf "drained cleanly";
        Ok ()))
