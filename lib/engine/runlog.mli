(** Machine-readable run log: one JSON line per estimate.

    The bench harness records every estimate it prints, so downstream
    tooling ([ids_inspect], plots, regression tracking across commits) can
    consume the experiment tables without scraping stdout. Line format:

    {v
    {"schema_version":3,"protocol":"sym_dmam","n":16,"prover":"honest",
     "trials":240,"accepts":240,"rate":1.0,"ci_low":0.98413,"ci_high":1.0,
     "mean_bits":87.1,"max_bits":92,"domains":4,"stopped_early":false}
    v}

    Fault-sweep records additionally carry a ["fault"] field holding the
    [Fault.to_string]-style label of the injected spec; records written
    while tracing ([IDS_TRACE=1]) is on carry a ["metrics"] object — the
    {!Ids_obs.Obs.snapshot_json} snapshot covering that estimate's trials.

    The reader half ({!of_line}, {!read_file}) accepts schema versions 2
    and 3 in the same file (version 2 lines simply have no metrics) and
    reports an explicit error for anything else. *)

val schema_version : int
(** Version stamped on every record; bumped on any format change. *)

val min_supported_version : int
(** Oldest version {!of_json} still reads (currently 2). *)

val to_json :
  ?fault:string -> ?metrics:string -> protocol:string -> n:int -> prover:string -> Engine.estimate -> string
(** The JSON object for one estimate (a single line, no trailing newline).
    [fault] adds the fault-spec label field; [metrics] embeds a
    pre-rendered JSON object (use {!Ids_obs.Obs.snapshot_json}). *)

val set_sink : out_channel option -> unit
(** Route subsequent {!log} calls to the given channel (or drop them). *)

val open_from_env : ?default:string -> unit -> unit
(** Point the sink at the path named by the [IDS_RUNLOG] environment
    variable (appending), falling back to [default] when the variable is
    unset; an empty value disables logging. No default and no variable
    means no sink. The file is created lazily — only when the first record
    is logged — so runs that log nothing leave no artifact. An unwritable
    path prints a warning on stderr (at first write) and disables logging
    rather than aborting the run. *)

val log :
  ?fault:string -> ?metrics:string -> protocol:string -> n:int -> prover:string -> Engine.estimate -> unit
(** Append one JSON line to the sink, if any (no-op otherwise). *)

val close : unit -> unit
(** Flush and close the current sink, if it was opened by this module. *)

(** {1 Crash-safe framed sink}

    The serving daemon ([ids_serve]) appends its records through this
    writer instead of the plain JSONL sink: each record is framed as
    [=IDS <payload-bytes>\n<payload>\n]. {!Framed.write_batch} appends a
    group of records as one [write] of their concatenated frames followed
    by (by default) one [fsync], so a [kill -9] mid-write leaves a
    whole-record prefix plus at most one torn tail, which {!Framed.create}
    detects and truncates on the next open. The daemon commits every
    record completed in one event-loop pass as one batch, after handing
    idle workers their next request and before replying to any of the
    batch's clients. {!read_file} / {!read_file_lenient} auto-detect the
    framing. *)
module Framed : sig
  val magic : string
  (** The record prefix (["=IDS "]); a file starting with it is framed. *)

  val frame : string -> string
  (** The on-disk bytes of one record (header, payload, terminator). *)

  type writer

  val create : ?sync:bool -> string -> (writer, string) result
  (** Open [path] for appending, first truncating any torn trailing record
      (crash recovery). A length header that overflows an [int] or claims
      more bytes than the file holds counts as a torn tail. [sync]
      (default [true]) fsyncs after every {!write_batch}. On [Error] no
      file descriptor is left open. *)

  val truncated : writer -> int
  (** Bytes of torn tail removed by recovery at {!create} time (0 = clean). *)

  val path : writer -> string

  val write_batch : writer -> string list -> unit
  (** Append the payloads' frames, in list order, with one [write] and one
      [fsync]; [[]] touches nothing. No payload may contain ['\n']. *)

  val write : writer -> string -> unit
  (** [write w p] is [write_batch w [p]]. *)

  val close : writer -> unit
end

(** {1 Reading records back} *)

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
  metrics : Ids_obs.Json.t option;  (** present on (some) version-3 records *)
}

val of_json : Ids_obs.Json.t -> (record, string) result
(** Decode one parsed line. Versions 2 and 3 are accepted; any other
    [schema_version] is an explicit error naming the supported range. *)

val of_line : string -> (record, string) result
(** Parse + decode one log line. *)

type tail_error =
  | Torn_tail of { offset : int; reason : string }
      (** The file ends in an interrupted write: [offset] is where the good
          prefix ends (a record boundary, safe to truncate to or resume
          reading from). *)
  | Bad_line of { lineno : int; reason : string }
      (** A complete line/record (1-based index) that doesn't decode —
          corruption or a foreign format, not a torn append. *)

type contents = {
  records : record list;  (** The good prefix, in file order. *)
  good_end : int;  (** Byte offset just past the last good record. *)
  tail : tail_error option;  (** Why reading stopped before EOF, if it did. *)
}

val tail_error_to_string : tail_error -> string

val read_file_lenient : string -> (contents, string) result
(** All leading good records of a run log (framed or plain JSONL,
    auto-detected), plus a structured description of the first problem
    instead of a hard failure — crash recovery and [ids_inspect] keep the
    good prefix. [Error] only for filesystem-level failures. Blank JSONL
    lines are skipped. *)

val read_from : string -> offset:int -> (contents, string) result
(** {!read_file_lenient} starting at byte [offset] (a record boundary, e.g.
    a previous read's [good_end]; out-of-range offsets restart at 0). The
    [ids_inspect --follow] tailing primitive. *)

val read_file : string -> (record list, string) result
(** Strict mode (tests, regression pins): all records of the file, in file
    order; the first malformed or unsupported line aborts with
    ["path:lineno: reason"] (torn tails abort with the byte offset). Blank
    lines are skipped. *)
