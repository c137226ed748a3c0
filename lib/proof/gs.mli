(** The distributed Goldwasser–Sipser set-lower-bound protocol (Section 4,
    Theorem 1.5), written once for every GNI variant.

    A variant ({!Gni}, {!Gni_full}, {!Gni_induced}) describes a candidate set
    [S] of 0/1 matrices whose size is [2 s] on YES instances and [s] on NO
    instances, and a {e layout}: once the prover has committed to a side
    [b] and a few permutation tables, every node owns some rows of the
    committed matrix (hashed with the {!Ids_hash.Api} family) and some rows
    whose width-[n] linear hashes under a post-commitment audit point
    are its {e audit terms}. This module holds everything else: the
    parameters, the prover's preimage search, the messages, the honest
    prover, one repetition with its local checks and fault hooks, and the
    amplified run.

    {2 One repetition (the A-M-A-M pattern)}

    + {b Arthur} — every node draws an API hash spec and a target [y in [q]];
      the tree root's draw binds.
    + {b Merlin} — broadcasts, in this order, the miss flag, [b], each
      permutation table, the root, echoes of the root's spec and target;
      then unicasts the spanning-tree labels (parent, distance).
    + {b Arthur} — every node draws an audit point.
    + {b Merlin} — broadcasts the root's audit point, then unicasts the
      subtree aggregates of the [k] inner API copies and of each audit term.

    Each node checks the echoes against its neighbors, that every table is
    a permutation, the ranges, the tree labels, and the aggregation
    equations for its own terms. The root also checks the outer hash layer
    against the target, that all audit aggregates agree (for one audit
    aggregate this holds trivially), and the echoes against its own draws.

    {2 Parameters}

    [q] is a prime in [\[4 s, 8 s\]] drawn from [seed lxor salt]. One
    repetition accepts with probability at least
    [(2s/q) - (2s)^2 (1 + eps) / (2 q^2)] on YES instances, with [eps] from
    {!Ids_hash.Api.epsilon} at the layout's row width, and at most
    [s/q + slack/q] on NO instances, where the variant's [slack] bounds the
    chance that a non-member of [S] survives the audit. The amplified run
    accepts at a node iff its count reaches the midpoint threshold. *)

type row = int * Ids_graph.Bitset.t
(** A matrix row: its index and its content. *)

type layout = int array array -> int -> int -> row list * row array
(** [layout tables b v]: the matrix rows node [v] owns once the prover has
    committed to [tables] and side [b], and the rows whose width-[n]
    linear hashes are [v]'s audit terms. A node with fewer audit rows than
    the variant's audit count contributes zero to the rest. Only called on
    tables that are permutations of the node ids and on [b] in [{0, 1}]. *)

type candidate = {
  b : int;
  tables : int array array;
  rows : row array;  (** every node's layout rows *)
}

type t
(** A variant's instance as the core sees it. *)

val make :
  graph:Ids_graph.Graph.t ->
  width:int ->
  set_size:int ->
  salt:int ->
  slack:int ->
  tables:int ->
  audits:int ->
  layout:layout ->
  enumerate:(t -> candidate array) ->
  t
(** [graph] is the network; [width] the row width of the hashed matrix;
    [set_size] is [s]; [salt] is xor-ed into the seed that draws [q];
    [slack] is the NO-side audit slack numerator (over [q]); [tables] and
    [audits] count the permutation tables per commitment and the audit
    aggregates per reveal. [enumerate] lists [S] in the order the honest
    prover scans it; it runs at most once, on first use. *)

val graph : t -> Ids_graph.Graph.t

val candidate : t -> b:int -> int array array -> candidate
(** The candidate committed to by [(b, tables)]: its rows are the
    concatenation of every node's layout rows. *)

val candidates : t -> candidate array
(** [S], enumerated on first use. Safe to call from several domains at
    once: the enumeration runs under the instance's lock. *)

type params = {
  q : int;  (** hash range: a prime in [\[4 s, 8 s\]] *)
  field : int Ids_hash.Field.t;
  copies : int;  (** inner copies [k] of the API hash *)
  repetitions : int;
  threshold : int;  (** per-node acceptance count *)
  set_size : int;  (** [s] *)
  yes_bound : float;  (** analytical single-repetition YES lower bound *)
  no_bound : float;  (** analytical single-repetition NO upper bound *)
}

val params_for : ?repetitions:int -> seed:int -> t -> params
(** Default [repetitions]: 600. *)

(** {1 Messages and provers} *)

type challenge = { specs : int Ids_hash.Api.spec array; targets : int array }

type commit = {
  miss : bool array;
  b : int array;
  tables : int array array array;  (** [tables.(j).(v)]: node [v]'s copy of table [j] *)
  root : int array;
  spec_echo : int Ids_hash.Api.spec array;
  target_echo : int array;
  parent : int array;
  dist : int array;
}

type reveal = {
  audit_echo : int array;
  agg : int array array;  (** [k] inner aggregates per node *)
  audits : int array array;  (** [audits.(j).(v)]: node [v]'s aggregate of audit term [j] *)
}

type prover = {
  name : string;
  commit : params -> t -> challenge -> commit;
  reveal : params -> t -> challenge -> commit -> int array -> reveal;
}

val prover_name : prover -> string

type search = params -> t -> int Ids_hash.Api.spec -> int -> (int * int array array) option
(** Given the root's spec and target, the [(b, tables)] to claim, or
    [None] to admit a miss. *)

val hash_rows : params -> t -> int Ids_hash.Api.spec -> row array -> int
(** [hash_rows params t spec] precomputes the spec's power tables; the
    result hashes a candidate's rows. *)

val find_preimage : search
(** The first candidate of {!candidates} whose hash is the target. *)

val commit_with : search -> params -> t -> challenge -> commit
(** An honestly shaped commitment (tree rooted at node 0, echoes of the
    root's draws) to whatever the search returns. *)

val honest_reveal : params -> t -> challenge -> commit -> int array -> reveal
(** Honest aggregates for the commitment; all zeros after a miss. *)

val honest : prover
(** [commit_with find_preimage] and {!honest_reveal}. *)

(** {1 Execution} *)

val run_single :
  span:string ->
  ?fault:Ids_network.Fault.spec ->
  ?params:params ->
  seed:int ->
  t ->
  prover ->
  Outcome.t
(** One repetition; [accepted] means every node found it locally valid (a
    "hit"). [span] names the {!Ids_obs.Obs} span. [fault] injects faults
    into every channel round (see {!Ids_network.Fault}). *)

val run :
  span:string ->
  ?fault:Ids_network.Fault.spec ->
  ?params:params ->
  seed:int ->
  t ->
  prover ->
  Outcome.t
(** [params.repetitions] repetitions, per-node counting, global accept iff
    every node's count reaches the threshold. A dropped message invalidates
    the affected node for exactly the repetition it occurred in; crashed
    nodes are judged once at the final decision per the spec's crash mode. *)
