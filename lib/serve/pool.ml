module Obs = Ids_obs.Obs

type worker = {
  wid : int;
  pid : int;
  req_w : Unix.file_descr;  (* parent writes request lines *)
  resp_r : Unix.file_descr;  (* parent reads response lines (non-blocking) *)
  buf : Buffer.t;  (* partial response line *)
  mutable wclosed : bool;  (* request pipe closed (EOF sent) *)
  mutable closed : bool;
}

let wid w = w.wid
let pid w = w.pid
let read_fd w = w.resp_r
let write_fd w = w.req_w

(* --- the child ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let rec put o = if o < len then put (o + Unix.write_substring fd s o (len - o)) in
  put 0

let worker_main ~chaos ?(telemetry = false) rfd wfd =
  (* The parent controls this process's lifecycle through the pipes (EOF =
     drain) and SIGKILL (deadline); terminal-delivered signals must not take
     a shard down mid-request. *)
  Sys.set_signal Sys.sigterm Sys.Signal_ignore;
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* With telemetry on, this worker runs the engine instrumented and ships
     metric deltas back as frames: each frame is a snapshot of the cells
     accumulated since the previous frame, and the cells are cleared the
     instant the snapshot is taken.  The worker is single-threaded between
     requests, so every tick lands in exactly one frame and the sum of
     delivered frames telescopes to the worker's full ledger no matter
     where the chain is cut by a kill.  Snapshot-and-reset (rather than a
     checkpoint chain) keeps the cell tables — and the walk that merges
     them — bounded by one request's worth of cells; the engine runs at
     [~domains:1] here, so the worker's own shard is the only one and a
     long-lived worker's frame cost never grows.  The anchor is refreshed
     first so shipped span times are relative to this worker's own birth,
     not the parent's.  Unless the operator asked for the deep IDS_TRACE
     mode, only the wire-ledger counters stay live — the inner-loop
     instrumentation would cost real throughput (see bench/telemetry
     phase B). *)
  if telemetry then begin
    Obs.refresh_epoch ();
    if not (Obs.enabled ()) then Obs.set_metric_filter (Some [ "net." ]);
    Obs.set_enabled true
  end;
  let seq = ref 0 in
  let next_frame ~trace spans =
    if not telemetry then None
    else begin
      incr seq;
      let delta = Obs.snapshot () in
      Obs.reset ();
      Some
        { Request.fpid = Unix.getpid ();
          fseq = !seq;
          fepoch_ns = Obs.epoch_ns ();
          ftrace = trace;
          fdelta = delta;
          fspans = spans
        }
    end
  in
  let ic = Unix.in_channel_of_descr rfd in
  let respond_line line =
    match write_all wfd line with
    | () -> ()
    | exception Unix.Unix_error _ -> Unix._exit 0 (* parent is gone *)
  in
  let respond resp = respond_line (Request.response_to_json resp ^ "\n") in
  let rec loop () =
    match input_line ic with
    | exception End_of_file ->
      (match next_frame ~trace:None [] with Some f -> respond (Request.Flush f) | None -> ());
      Unix._exit 0
    | line ->
      (match Request.of_line line with
      | Error e -> respond (Request.Rejected { id = ""; reject = Request.Bad_request e })
      | Ok (req, attempt) -> (
        let id = req.Request.id in
        match req.Request.op with
        | Request.Ping -> respond (Request.Pong { id })
        | Request.Stats _ ->
          respond
            (Request.Rejected { id; reject = Request.Bad_request "stats is answered by the daemon" })
        | Request.Estimate { protocol; strategy; trials; fault; kill_attempt; torn_attempt } ->
          let die =
            match kill_attempt with
            | Some a -> a = attempt
            | None -> Chaos.kills chaos ~id ~attempt
          in
          if die then Unix.kill (Unix.getpid ()) Sys.sigkill;
          let t0 = Obs.now_ns () in
          let result = Catalog.execute_request ~protocol ~strategy ~trials ~fault in
          let t1 = Obs.now_ns () in
          (match result with
          | Ok record ->
            let frame =
              let spans =
                if not telemetry then []
                else
                  let epoch = Obs.epoch_ns () in
                  [ { Obs.sname = "worker.execute";
                      sround = attempt;
                      snode = -1;
                      sdomain = 0;
                      start_ns = t0 - epoch;
                      dur_ns = t1 - t0
                    }
                  ]
              in
              next_frame ~trace:req.Request.trace spans
            in
            let out =
              Request.response_to_json
                (Request.Estimated { id; attempts = attempt; record; telemetry = frame })
              ^ "\n"
            in
            (match torn_attempt with
            | Some a when a = attempt ->
              (* Die mid-frame: ship roughly half the line, then SIGKILL.
                 The parent must salvage nothing from the partial line and
                 count the gap. *)
              (try ignore (Unix.write_substring wfd out 0 (String.length out / 2))
               with Unix.Unix_error _ -> ());
              Unix.kill (Unix.getpid ()) Sys.sigkill
            | _ -> ());
            respond_line out
          | Error e -> respond (Request.Rejected { id; reject = Request.Bad_request e }))));
      loop ()
  in
  loop ()

(* --- the parent side ------------------------------------------------------------ *)

let spawn ?(chaos = Chaos.none) ?(telemetry = false) ?(extra_close = []) ~wid () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  (* Unflushed stdio would be duplicated into the child's exit path. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) extra_close;
    worker_main ~chaos ~telemetry req_r resp_w
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    Unix.set_nonblock resp_r;
    { wid; pid; req_w; resp_r; buf = Buffer.create 256; wclosed = false; closed = false }

let send w ~attempt req =
  match write_all w.req_w (Request.to_json ~attempt req ^ "\n") with
  | () -> true
  | exception Unix.Unix_error _ -> false

let read w =
  let chunk = Bytes.create 8192 in
  let rec drain () =
    match Unix.read w.resp_r chunk 0 (Bytes.length chunk) with
    | 0 -> `Closed
    | n ->
      Buffer.add_subbytes w.buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Open
    | exception Unix.Unix_error _ -> `Closed
  in
  let state = drain () in
  let data = Buffer.contents w.buf in
  Buffer.clear w.buf;
  let rec split o acc =
    match String.index_from_opt data o '\n' with
    | Some i -> split (i + 1) (String.sub data o (i - o) :: acc)
    | None ->
      Buffer.add_string w.buf (String.sub data o (String.length data - o));
      List.rev acc
  in
  let lines = split 0 [] in
  match (state, lines) with
  | `Closed, [] -> `Eof
  | _, lines -> `Lines lines

let kill w = try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()

let close_writer w =
  if not w.wclosed then begin
    w.wclosed <- true;
    try Unix.close w.req_w with Unix.Unix_error _ -> ()
  end

let shutdown w =
  if not w.closed then begin
    w.closed <- true;
    close_writer w;
    try Unix.close w.resp_r with Unix.Unix_error _ -> ()
  end
