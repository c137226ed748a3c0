(** Tracing and metrics for the protocol engine.

    Everything in this module is gated by the [IDS_TRACE] environment knob
    (or {!set_enabled}): when tracing is off, {!span} is a flag test plus a
    tail call and the counter primitives are a flag test — nothing is
    recorded, nothing is allocated beyond the optional-argument boxes at the
    call site. The disabled path is pinned by [bench/obs], which asserts its
    cost is under 2% of the Protocol 2 hot path.

    When tracing is on, spans and metric increments go to a {e per-domain}
    shard reached through [Domain.DLS] — the hot path takes no lock (a
    mutex is touched once per domain lifetime, to register the fresh shard
    in the global list). Shards are merged by {!snapshot} / {!spans}, which
    must be called when no scheduler batch is running — in this codebase,
    after [Scheduler.map_range] has returned. Pool workers parked between
    batches may stay alive; their shards stay registered. Tracing never draws
    randomness and never changes control flow, so traced runs produce
    bit-identical estimates.

    Span merge order is canonicalized (sorted by name, round, node, then
    time) before export, so the sequence of span labels is deterministic
    across worker counts even though timings and domain assignment are
    not. *)

val enabled : unit -> bool
(** True when tracing is on. Initialized from [IDS_TRACE] (any value other
    than empty or ["0"] enables). *)

val set_enabled : bool -> unit
(** Override the environment gate (used by tests and the bench harness).
    Call with no scheduler batch running. *)

val set_metric_filter : string list option -> unit
(** Restrict which counters and histograms stay live while enabled: [None]
    (the default) keeps everything — the IDS_TRACE deep-trace mode; [Some
    prefixes] keeps only metrics whose name starts with one of the
    prefixes.  Service-telemetry workers run [Some ["net."]] so the
    wire-ledger counters tick while the inner-loop instrumentation
    (mont.redc fires once per modular reduction) stays free.  Spans are
    never filtered — every span site is low-frequency.  Call with no
    scheduler batch running; already-recorded cells are kept. *)

val now_ns : unit -> int
(** Monotonic clock in nanoseconds (CLOCK_MONOTONIC; origin unspecified).
    Timestamps from different processes on one machine share the clock but
    not any per-process origin — see {!epoch_ns} for the anchor that makes
    independently captured traces alignable. *)

val epoch_ns : unit -> int
(** The process-epoch anchor: the [now_ns] value captured when this module
    was initialized (or at the last {!refresh_epoch}). Span start times
    shipped across a process boundary are stored relative to the shipping
    process's anchor; a collector re-bases them by adding the anchor that
    traveled with them, yielding timestamps on the shared machine clock. *)

val refresh_epoch : unit -> unit
(** Re-capture the anchor. A forked worker inherits its parent's anchor;
    call this first thing after the fork so spans are anchored at the
    worker's own birth. *)

val span : ?round:int -> ?node:int -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] and, when tracing is on, records its wall-clock
    duration under [name] with optional [round] / [node] labels ([-1] =
    unlabeled). The span is recorded even when [f] raises. *)

(** Monotonically increasing named counters, optionally labeled with a
    (round, node) cell — e.g. bits delivered to node 3 in round 2. Counter
    handles are created once at module initialization; adding to one from
    any domain is lock-free. *)
module Counter : sig
  type t

  val make : string -> t
  (** Register a counter. Names should be unique; registering the same name
      twice yields two counters whose cells are merged under one name in
      snapshots.
      @raise Invalid_argument past 2048 registered counters and histograms. *)

  val add : t -> int -> unit
  (** Unlabeled increment (no round/node cell). No-op when tracing is off. *)

  val add_cell : t -> round:int -> node:int -> int -> unit
  (** Increment the (round, node) cell. No-op when tracing is off.
      Labels range over [-1] (unlabeled) to [2^20 - 2] for rounds and to
      [2^31 - 2] for nodes.
      @raise Invalid_argument for a label outside that range while tracing
      is on. *)

  val live : t -> bool
  (** True when an add to this counter records: tracing is on and the
      metric filter keeps the counter. A caller that skips per-cell work
      when it is false records nothing less. *)
end

(** Log-scale histograms: observation [v] lands in bucket [bits v] (the
    bit length of [v], 0 for [v <= 0]), so bucket [b] covers
    [[2^(b-1), 2^b)]. *)
module Histo : sig
  type t

  val make : string -> t
  (** Register a histogram; counters and histograms share one id space.
      @raise Invalid_argument past 2048 registered counters and histograms. *)

  val observe : t -> int -> unit
  (** No-op when tracing is off. *)

  val bucket_of : int -> int
  (** The bucket an observation falls into (exposed for tests/tools). *)
end

type span_record = {
  sname : string;
  sround : int;  (** -1 when unlabeled *)
  snode : int;  (** -1 when unlabeled *)
  sdomain : int;  (** id of the domain that recorded the span *)
  start_ns : int;
  dur_ns : int;
}

type round_row = { round : int; sum : int; max_node : int }
(** One round of a counter: total over all (node) cells and the largest
    single-node cell. *)

type counter_snapshot = {
  cname : string;
  total : int;  (** all cells plus unlabeled increments *)
  rounds : round_row list;  (** labeled cells grouped by round, ascending *)
}

type histo_snapshot = { hname : string; buckets : (int * int) list }

type snapshot = {
  counters : counter_snapshot list;  (** sorted by name *)
  histos : histo_snapshot list;  (** sorted by name *)
  spans_dropped : int;  (** spans lost to the per-shard buffer cap *)
}

val snapshot : unit -> snapshot
(** Merge all shards' metrics. Call with no scheduler batch running. *)

type checkpoint
(** A deep copy of the merged metric cells at one instant, the base of a
    delta window. *)

val checkpoint : unit -> checkpoint
(** Capture the current cells. Call with no scheduler batch running. *)

val since : checkpoint -> snapshot
(** The delta window from [checkpoint] to now, computed cell by cell —
    every field, including per-round [max_node], is exact {e for the
    window}. Do not call {!reset_metrics} / {!reset} between the checkpoint
    and the delta; cells only grow otherwise. *)

val empty : snapshot
(** The identity of {!merge}. *)

val merge : snapshot -> snapshot -> snapshot
(** Fold two snapshots name by name: counter totals, per-round sums,
    histogram buckets, and [spans_dropped] add (exact under any fold
    order); per-round [max_node] folds by max, which over deltas from one
    process is a {e lower bound} on the true per-node peak (the same node
    may contribute to several windows). The additive fields are the ledger;
    the bound is advisory. *)

val counter_total : snapshot -> string -> int
(** Total of the named counter, 0 when absent. *)

val spans : unit -> span_record list
(** All recorded spans in canonical order (name, round, node, start time).
    Call with no scheduler batch running. *)

val ops_count : unit -> int
(** Total instrumentation calls (spans recorded, counter adds, histogram
    observations) across all shards since the last {!reset}. The overhead
    bench multiplies this by the measured disabled-path per-call cost to
    bound what the instrumentation costs when tracing is off. *)

val reset_metrics : unit -> unit
(** Clear counters and histograms in every shard, keeping spans (the bench
    harness snapshots metrics per estimate while the trace accumulates for
    the whole process). Call with no scheduler batch running. *)

val reset : unit -> unit
(** Clear every shard: spans, counters, histograms, drop and op counts.
    Shards stay registered, so a parked [Scheduler] pool worker's later
    spans and cells are still merged by {!spans} and {!snapshot}. Call with
    no scheduler batch running. *)

val snapshot_json : snapshot -> string
(** Compact one-line JSON rendering, embedded in schema-version-3 run-log
    records:
    {v
    {"counters":[{"name":"net.from_prover_bits","total":544,
                  "rounds":[[1,256,16],[2,288,18]]}],
     "histos":[{"name":"mont.pow_bits","buckets":[[10,5]]}],
     "spans_dropped":0}
    v}
    Round rows are [[round, sum, max_node]]. *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!snapshot_json}. Strict: any missing or mistyped field is
    an [Error], so a torn frame can never decode into a partial snapshot. *)

val snapshot_of_string : string -> (snapshot, string) result
(** [snapshot_of_json] composed with {!Json.parse}. *)

val spans_json : epoch:int -> span_record list -> string
(** Wire encoding of spans as a JSON array of
    [[name, round, node, domain, start, dur]] rows, with start times stored
    relative to [epoch] (normally {!epoch_ns}[ ()] of the shipping
    process). *)

val spans_of_json : Json.t -> (span_record list, string) result
(** Inverse of {!spans_json}. Start times come back as stored (relative);
    the collector re-bases by adding the epoch that traveled alongside. *)
