(** The verification daemon: accept loop, event loop, graceful drain.

    [run] binds a Unix-domain socket, forks the worker pool, and serves
    {!Request} lines until SIGTERM/SIGINT: requests are queued through the
    {!Supervisor} state machine, executed by forked {!Pool} workers
    (supervised — crash detection via SIGCHLD/pipe EOF, deadline kills,
    seeded {!Chaos} self-kills, retry with exponential backoff, bounded
    restart budget, bounded-queue load shedding), and every completed
    estimate is appended to a crash-safe {!Ids_engine.Runlog.Framed} log
    that [ids_inspect --follow] can tail live.

    Instrumentation flows through the {!Ids_obs.Obs} layer (gated by
    [IDS_TRACE] like everything else): counters [serve.accepted],
    [serve.shed], [serve.retried], [serve.timed_out],
    [serve.worker_crashes], [serve.log_records], [serve.log_syncs];
    histograms [serve.queue_depth] (observed per accepted request) and
    [serve.latency_ms] (per completed request). The [stats] reply (every
    format) carries [log_records] and [log_syncs] whatever [IDS_TRACE]
    says; their ratio is the number of records per fsync.

    Socket input is bounded: a request line longer than
    {!max_request_line} bytes is answered [bad_request] and that client
    is closed; other clients are served as usual.

    Drain semantics on SIGTERM/SIGINT: the listening socket closes
    immediately, queued first attempts are rejected [Draining], in-flight
    requests (and their pending retries) finish and are answered, workers
    are shut down via pipe EOF and reaped, the log is closed, and [run]
    returns [Ok ()]. *)

type config = {
  socket : string;  (** Unix-domain socket path. *)
  sup : Supervisor.config;
  chaos : Chaos.spec;  (** Seeded worker-kill injection (chaos runs). *)
  log_path : string;  (** Framed crash-safe run log; [""] disables. *)
  log_sync : bool;
      (** fsync the run log (the crash-safety guarantee): one fsync per
          event-loop pass, always before the reply, dispatch before disk.
          Each pass first hands idle workers their next requests, then
          appends every record completed in the pass as one
          {!Ids_engine.Runlog.Framed.write_batch} (one write, one fsync),
          then answers those clients in completion order. *)
  verbose : bool;
  telemetry : bool;
      (** Run workers instrumented: every Estimated response carries a
          {!Request.frame} metrics delta (folded into the {!Telemetry}
          registry), records embed their [metrics] window, and workers
          flush a final frame on graceful exit. Off by default — the E18
          byte-identity pin compares records against an uninstrumented
          oracle. *)
  trace_path : string;
      (** Where to write the merged cross-process Chrome trace on drain
          ([""] disables): queue-wait / attempt / crash spans from the
          server plus every worker's shipped compute spans, stitched under
          per-request trace ids. *)
}

val max_request_line : int
(** The longest request line the daemon accepts, newline excluded
    (64 KiB; real requests are a few hundred bytes). *)

val default : config
(** Socket [ids_serve.sock], log [ids_serve_runs.jsonl], {!Supervisor.default},
    no chaos, synced log, quiet, telemetry off, no trace. *)

val of_env : ?base:config -> unit -> config
(** [base] (default {!default}) overridden by the [IDS_SERVE_*] environment
    knobs: [IDS_SERVE_SOCKET], [IDS_SERVE_WORKERS], [IDS_SERVE_QUEUE],
    [IDS_SERVE_RETRIES] (max attempts), [IDS_SERVE_RESTARTS],
    [IDS_SERVE_DEADLINE_MS], [IDS_SERVE_BACKOFF_MS] (base delay),
    [IDS_SERVE_CHAOS] ({!Chaos.of_string} format), [IDS_SERVE_LOG] (empty
    disables), [IDS_SERVE_SYNC] ([0] = no fsync), [IDS_SERVE_VERBOSE],
    [IDS_SERVE_TELEMETRY] ([0] = off), [IDS_SERVE_TRACE] (merged trace
    path; empty disables).
    @raise Invalid_argument on an unparsable knob. *)

val run : config -> (unit, string) result
(** Serve until drained. [Error] covers startup failures (bad config,
    unbindable socket, unwritable log) and abnormal loop exits; a clean
    SIGTERM drain is [Ok ()]. *)
