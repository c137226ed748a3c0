(* The verification daemon: serve estimate requests over a Unix-domain
   socket, sharded across supervised worker processes (crash retry with
   backoff, per-request deadlines, bounded-queue load shedding), appending
   every completed estimate to a crash-safe framed run log.

   Examples:
     ids-serve                                  # defaults: ./ids_serve.sock
     ids-serve --socket /tmp/ids.sock --workers 8
     ids-serve --chaos kill=0.1,seed=7          # seeded worker-kill injection
     IDS_SERVE_DEADLINE_MS=500 ids-serve        # env knobs = flag defaults

   Configuration precedence: flags over IDS_SERVE_* environment knobs over
   built-in defaults. SIGTERM/SIGINT drain gracefully: in-flight requests
   finish, queued first attempts are rejected "draining", workers exit on
   pipe EOF, and the socket and log are released. *)

module Server = Ids_serve.Server
module Chaos = Ids_serve.Chaos
module Supervisor = Ids_serve.Supervisor
open Cmdliner

let run socket workers queue retries restarts deadline_ms backoff_ms chaos log no_sync verbose
    telemetry trace =
  match
    let base = Server.of_env () in
    let opt v default = Option.value v ~default in
    let ms v default = match v with None -> default | Some ms -> ms /. 1000. in
    { Server.socket = opt socket base.Server.socket;
      sup =
        { base.Server.sup with
          Supervisor.workers = opt workers base.Server.sup.Supervisor.workers;
          queue_bound = opt queue base.Server.sup.Supervisor.queue_bound;
          max_attempts = opt retries base.Server.sup.Supervisor.max_attempts;
          restart_budget = opt restarts base.Server.sup.Supervisor.restart_budget;
          deadline = ms deadline_ms base.Server.sup.Supervisor.deadline;
          backoff_base = ms backoff_ms base.Server.sup.Supervisor.backoff_base
        };
      chaos =
        (match chaos with None -> base.Server.chaos | Some s -> Chaos.of_string s);
      log_path = opt log base.Server.log_path;
      log_sync = base.Server.log_sync && not no_sync;
      verbose = base.Server.verbose || verbose;
      telemetry = base.Server.telemetry || telemetry;
      trace_path = opt trace base.Server.trace_path
    }
  with
  | exception Invalid_argument e ->
    Printf.eprintf "ids-serve: %s\n" e;
    2
  | cfg -> (
    match Server.run cfg with
    | Ok () -> 0
    | Error e ->
      Printf.eprintf "ids-serve: %s\n" e;
      1)

let cmd =
  let socket_t =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(value & opt (some string) None & info [ "socket"; "s" ] ~docv:"PATH" ~doc)
  in
  let workers_t =
    let doc = "Worker-process shard count." in
    Arg.(value & opt (some int) None & info [ "workers"; "w" ] ~docv:"N" ~doc)
  in
  let queue_t =
    let doc = "Queued-request bound; submits beyond it are shed (overloaded)." in
    Arg.(value & opt (some int) None & info [ "queue" ] ~docv:"N" ~doc)
  in
  let retries_t =
    let doc = "Attempts per request before giving up (failed)." in
    Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)
  in
  let restarts_t =
    let doc = "Total crash-respawns before a worker slot stays dead." in
    Arg.(value & opt (some int) None & info [ "restarts" ] ~docv:"N" ~doc)
  in
  let deadline_t =
    let doc = "Per-attempt deadline in milliseconds (0 = none)." in
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let backoff_t =
    let doc = "Base retry backoff in milliseconds (doubles per failure, capped)." in
    Arg.(value & opt (some float) None & info [ "backoff-ms" ] ~docv:"MS" ~doc)
  in
  let chaos_t =
    let doc = "Seeded worker-kill injection, e.g. kill=0.1,seed=7 (chaos testing)." in
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)
  in
  let log_t =
    let doc = "Crash-safe framed run log path (empty string disables)." in
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"PATH" ~doc)
  in
  let no_sync_t =
    let doc =
      "Skip the run log's fsync (one per event-loop pass; faster, loses the power-failure \
       guarantee)."
    in
    Arg.(value & flag & info [ "no-sync" ] ~doc)
  in
  let verbose_t =
    let doc = "Log worker lifecycle events to stderr." in
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc)
  in
  let telemetry_t =
    let doc =
      "Run workers instrumented: per-request metric deltas are folded into the live telemetry \
       registry (stats format=json/prom), records embed their metrics window, and ids-inspect \
       --live has a ledger to show."
    in
    Arg.(value & flag & info [ "telemetry" ] ~doc)
  in
  let trace_t =
    let doc =
      "Write the merged cross-process Chrome trace (queue-wait, attempts, worker compute \
       spans, stitched per trace id) to $(docv) on drain."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)
  in
  let doc = "Serve IDS verification estimates from a supervised worker pool" in
  Cmd.v
    (Cmd.info "ids-serve" ~version:"1.0.0" ~doc)
    Term.(
      const run $ socket_t $ workers_t $ queue_t $ retries_t $ restarts_t $ deadline_t
      $ backoff_t $ chaos_t $ log_t $ no_sync_t $ verbose_t $ telemetry_t $ trace_t)

let () = exit (Cmd.eval' cmd)
