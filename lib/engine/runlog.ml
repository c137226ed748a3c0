module Json = Ids_obs.Json

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Bumped whenever a field is added, renamed, or re-typed, so downstream
   consumers can dispatch without sniffing. History: 1 = the PR-1 format
   (no version field); 2 = adds schema_version and the optional fault label;
   3 = adds the optional embedded Obs metrics snapshot. *)
let schema_version = 3

let min_supported_version = 2

let to_json ?fault ?metrics ~protocol ~n ~prover (e : Engine.estimate) =
  let fault_field =
    match fault with
    | None -> ""
    | Some f -> Printf.sprintf "\"fault\":\"%s\"," (escape f)
  in
  let metrics_field =
    (* [metrics] is a pre-rendered JSON object (Obs.snapshot_json); embedding
       it raw keeps the line a single valid JSON document. *)
    match metrics with None -> "" | Some m -> Printf.sprintf ",\"metrics\":%s" m
  in
  Printf.sprintf
    "{\"schema_version\":%d,\"protocol\":\"%s\",\"n\":%d,\"prover\":\"%s\",%s\"trials\":%d,\"accepts\":%d,\"rate\":%.6g,\"ci_low\":%.6g,\"ci_high\":%.6g,\"mean_bits\":%.6g,\"max_bits\":%d,\"domains\":%d,\"stopped_early\":%b%s}"
    schema_version (escape protocol) n (escape prover) fault_field e.Engine.trials
    e.Engine.accepts e.Engine.rate e.Engine.ci_low e.Engine.ci_high e.Engine.mean_bits
    e.Engine.max_bits e.Engine.domains e.Engine.stopped_early metrics_field

(* The sink is process-global. A [Pending] path is only opened (and the
   file only created) on the first record actually logged, so runs that
   never log leave no artifact behind; [owned] distinguishes channels this
   module opened (and must close) from externally supplied ones. *)
type state = Closed | Pending of string | Open of out_channel

let sink : state ref = ref Closed
let owned = ref false

let close () =
  (match !sink with
  | Open oc ->
    flush oc;
    if !owned then close_out_noerr oc
  | Pending _ | Closed -> ());
  sink := Closed;
  owned := false

let set_sink oc =
  close ();
  match oc with None -> () | Some oc -> sink := Open oc

let open_from_env ?default () =
  let path = match Sys.getenv_opt "IDS_RUNLOG" with Some p -> Some p | None -> default in
  close ();
  match path with None | Some "" -> () | Some path -> sink := Pending path

let channel () =
  match !sink with
  | Closed -> None
  | Open oc -> Some oc
  | Pending path -> (
    match open_out_gen [ Open_append; Open_creat ] 0o644 path with
    | oc ->
      sink := Open oc;
      owned := true;
      Some oc
    | exception Sys_error msg ->
      (* An unwritable log path shouldn't abort a long benchmark run. *)
      Printf.eprintf "warning: run log disabled (%s)\n%!" msg;
      sink := Closed;
      None)

let log ?fault ?metrics ~protocol ~n ~prover e =
  match channel () with
  | None -> ()
  | Some oc ->
    output_string oc (to_json ?fault ?metrics ~protocol ~n ~prover e);
    output_char oc '\n';
    flush oc

(* --- crash-safe framed sink ---------------------------------------------------- *)

(* The serving daemon's log must survive kill -9 mid-write: plain JSONL
   leaves a torn final line that poisons the whole file for strict readers.
   Framed records make the torn tail detectable and cheap to cut off:

     =IDS <payload-byte-length>\n<payload>\n

   The header's byte length lets recovery know exactly where the record
   should end without trusting the payload's content; [Framed.create] runs
   that recovery on open (truncating a torn tail in place) and every
   [Framed.write_batch] appends its frames back to back through one
   [write] followed by one [fsync] (unless [~sync:false]). A crash can cut
   that append at any byte, and every prefix of concatenated frames is a
   whole number of records plus at most one torn tail. *)
module Framed = struct
  let magic = "=IDS "

  let frame payload = Printf.sprintf "%s%d\n%s\n" magic (String.length payload) payload

  (* [scan s offset] walks frames from [offset]: payloads in order, the byte
     offset just past the last whole frame, and the reason the walk stopped
     early (if it did). A bad header mid-file is reported the same way as a
     truncated tail — the fsync'd append-only discipline means everything
     after the first framing violation is untrustworthy. The length header
     is untrusted too: one that overflows an [int], or claims more bytes
     than the file holds, is a torn tail like any other. *)
  let scan s offset =
    let len = String.length s in
    let ml = String.length magic in
    let rec go o acc =
      if o >= len then (List.rev acc, o, None)
      else
        let torn reason = (List.rev acc, o, Some reason) in
        if o + ml > len then torn "truncated frame magic"
        else if String.sub s o ml <> magic then torn "bad frame magic"
        else begin
          let h = ref (o + ml) in
          while !h < len && s.[!h] >= '0' && s.[!h] <= '9' do incr h done;
          if !h = o + ml then torn "frame header has no length"
          else if !h >= len then torn "truncated frame header"
          else if s.[!h] <> '\n' then torn "malformed frame header"
          else
            let pstart = !h + 1 in
            match int_of_string_opt (String.sub s (o + ml) (!h - (o + ml))) with
            | None -> torn "frame length out of range"
            | Some plen when plen > len - pstart -> torn "truncated payload"
            | Some plen when plen = len - pstart -> torn "truncated payload terminator"
            | Some plen ->
              let pend = pstart + plen in
              if s.[pend] <> '\n' then torn "missing payload terminator"
              else go (pend + 1) (String.sub s pstart plen :: acc)
        end
    in
    go offset []

  type writer = { fd : Unix.file_descr; wpath : string; sync : bool; wtruncated : int }

  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  (* The whole file through [fd], from offset 0. *)
  let read_fd fd =
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 65536 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    in
    go ()

  let create ?(sync = true) path =
    match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
    | fd -> (
      match
        let contents = read_fd fd in
        let _, good_end, _torn = scan contents 0 in
        let dropped = String.length contents - good_end in
        if dropped > 0 then Unix.ftruncate fd good_end;
        ignore (Unix.lseek fd good_end Unix.SEEK_SET : int);
        { fd; wpath = path; sync; wtruncated = dropped }
      with
      | w -> Ok w
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (match e with
        | Unix.Unix_error (e, _, _) -> Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
        | e -> raise e))

  let truncated w = w.wtruncated
  let path w = w.wpath

  let write_batch w payloads =
    if payloads <> [] then begin
      let data = String.concat "" (List.map frame payloads) in
      let len = String.length data in
      let rec put o = if o < len then put (o + Unix.write_substring w.fd data o (len - o)) in
      put 0;
      if w.sync then Unix.fsync w.fd
    end

  let write w payload = write_batch w [ payload ]

  let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()
end

(* --- reading records back ----------------------------------------------------- *)

type record = {
  version : int;
  protocol : string;
  n : int;
  prover : string;
  fault : string option;
  trials : int;
  accepts : int;
  rate : float;
  ci_low : float;
  ci_high : float;
  mean_bits : float;
  max_bits : int;
  domains : int;
  stopped_early : bool;
  metrics : Json.t option;
}

let of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or mistyped field %S" name)
  in
  let* version = field "schema_version" Json.to_int in
  if version < min_supported_version || version > schema_version then
    Error
      (Printf.sprintf "unknown schema_version %d (this reader supports %d..%d)" version
         min_supported_version schema_version)
  else
    let* protocol = field "protocol" Json.to_string in
    let* n = field "n" Json.to_int in
    let* prover = field "prover" Json.to_string in
    let* trials = field "trials" Json.to_int in
    let* accepts = field "accepts" Json.to_int in
    let* rate = field "rate" Json.to_float in
    let* ci_low = field "ci_low" Json.to_float in
    let* ci_high = field "ci_high" Json.to_float in
    let* mean_bits = field "mean_bits" Json.to_float in
    let* max_bits = field "max_bits" Json.to_int in
    let* domains = field "domains" Json.to_int in
    let* stopped_early = field "stopped_early" Json.to_bool in
    Ok
      { version;
        protocol;
        n;
        prover;
        fault = Option.bind (Json.member "fault" j) Json.to_string;
        trials;
        accepts;
        rate;
        ci_low;
        ci_high;
        mean_bits;
        max_bits;
        domains;
        stopped_early;
        metrics = Json.member "metrics" j
      }

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> of_json j

type tail_error =
  | Torn_tail of { offset : int; reason : string }
  | Bad_line of { lineno : int; reason : string }

type contents = { records : record list; good_end : int; tail : tail_error option }

let tail_error_to_string = function
  | Torn_tail { offset; reason } -> Printf.sprintf "torn trailing record at byte %d (%s)" offset reason
  | Bad_line { lineno; reason } -> Printf.sprintf "%d: %s" lineno reason

(* Plain-JSONL walk from byte [offset]: whole newline-terminated lines parse
   as records; a malformed line that the file ends on without a newline is a
   torn tail (an interrupted append), while a malformed line {e inside} the
   file is a per-line error. [good_end] stops at the first problem either
   way, so a tail-follower can retry from a record boundary. A well-formed
   final line without its newline is accepted (matching [input_line]). *)
let parse_jsonl s offset =
  let len = String.length s in
  let rec go o lineno acc =
    if o >= len then { records = List.rev acc; good_end = o; tail = None }
    else
      let nl = try Some (String.index_from s o '\n') with Not_found -> None in
      let line_end = match nl with Some i -> i | None -> len in
      let line = String.sub s o (line_end - o) in
      let next = line_end + (match nl with Some _ -> 1 | None -> 0) in
      if line = "" then go next (lineno + 1) acc
      else
        match of_line line with
        | Ok r -> go next (lineno + 1) (r :: acc)
        | Error e ->
          let tail =
            match nl with
            | None -> Torn_tail { offset = o; reason = e }
            | Some _ -> Bad_line { lineno; reason = e }
          in
          { records = List.rev acc; good_end = o; tail = Some tail }
  in
  go offset 1 []

(* Framed walk: framing violations are torn tails at the frame's offset;
   a payload that frames correctly but doesn't decode is a per-record
   error (framing intact means the bytes were written whole). *)
let parse_framed s offset =
  let payloads, good_end, torn = Framed.scan s offset in
  let torn_tail = Option.map (fun reason -> Torn_tail { offset = good_end; reason }) torn in
  let rec go idx acc = function
    | [] -> { records = List.rev acc; good_end; tail = torn_tail }
    | p :: rest -> (
      match of_line p with
      | Ok r -> go (idx + 1) (r :: acc) rest
      | Error e ->
        { records = List.rev acc; good_end; tail = Some (Bad_line { lineno = idx; reason = e }) })
  in
  go 1 [] payloads

let is_framed s =
  String.length s >= String.length Framed.magic
  && String.sub s 0 (String.length Framed.magic) = Framed.magic

let read_from path ~offset =
  match Framed.read_all path with
  | exception Sys_error msg -> Error msg
  | s ->
    let offset = if offset < 0 || offset > String.length s then 0 else offset in
    Ok (if is_framed s then parse_framed s offset else parse_jsonl s offset)

let read_file_lenient path = read_from path ~offset:0

let read_file path =
  match read_file_lenient path with
  | Error e -> Error e
  | Ok { tail = None; records; _ } -> Ok records
  | Ok { tail = Some (Bad_line { lineno; reason }); _ } ->
    Error (Printf.sprintf "%s:%d: %s" path lineno reason)
  | Ok { tail = Some (Torn_tail _ as t); _ } ->
    Error (Printf.sprintf "%s: %s" path (tail_error_to_string t))
