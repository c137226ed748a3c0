(* [chunk] is the connection's one socket read buffer, holding unread
   bytes at [pos, len); [line] collects a line that spans reads. A fresh
   8 KiB block per read, or a copy of all buffered bytes per line, would
   be a major-heap allocation each time, so a busy client's peak RSS would
   grow with its throughput. *)
type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
  mutable closed : bool;
}

let of_fd fd = { fd; chunk = Bytes.create 8192; pos = 0; len = 0; line = Buffer.create 256; closed = false }

let connect ?(wait = 2.0) path =
  let deadline = Unix.gettimeofday () +. wait in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok (of_fd fd)
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        (* The daemon may still be binding its socket: retry briefly. *)
        ignore (Unix.select [] [] [] 0.05);
        go ()
      end
      else
        Error
          (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))
  in
  go ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let len = String.length s in
  let rec put o = if o < len then put (o + Unix.write_substring fd s o (len - o)) in
  put 0

let send t req =
  if t.closed then Error "connection closed"
  else
    match write_all t.fd (Request.to_json req ^ "\n") with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      close t;
      Error (Printf.sprintf "send: %s" (Unix.error_message e))

(* One line from the socket (blocking); read-ahead stays in [chunk]
   between calls so pipelined responses are not lost. *)
let read_line t =
  let rec newline i = if i >= t.len then None else if Bytes.get t.chunk i = '\n' then Some i else newline (i + 1) in
  let rec take () =
    match newline t.pos with
    | Some i ->
      Buffer.add_subbytes t.line t.chunk t.pos (i - t.pos);
      t.pos <- i + 1;
      let l = Buffer.contents t.line in
      Buffer.clear t.line;
      Ok l
    | None -> (
      Buffer.add_subbytes t.line t.chunk t.pos (t.len - t.pos);
      t.pos <- 0;
      t.len <- 0;
      match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 ->
        close t;
        Error "connection closed by daemon"
      | n ->
        t.len <- n;
        take ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
      | exception Unix.Unix_error (e, _, _) ->
        close t;
        Error (Printf.sprintf "recv: %s" (Unix.error_message e)))
  in
  if t.closed then Error "connection closed" else take ()

let recv t =
  match read_line t with
  | Error _ as e -> e
  | Ok line -> Request.response_of_line line

let request t req =
  match send t req with
  | Error _ as e -> e
  | Ok () ->
    (* Skip responses for other ids (pipelined traffic is the bench's job;
       interleaving here would be a caller bug, but don't wedge on it). *)
    let rec wait () =
      match recv t with
      | Error _ as e -> e
      | Ok resp ->
        let rid = Request.response_id resp in
        if rid = req.Request.id || rid = "" then Ok resp else wait ()
    in
    wait ()
