(** Composable fault injection for the network substrate.

    The paper's model (Section 2.2) assumes a perfect synchronous network;
    this module relaxes it so the robustness shape of the theorems can be
    measured empirically: soundness must hold under {e every} fault below,
    while completeness should degrade gracefully with the fault rates.

    {2 Fault taxonomy}

    - {b drop}: each prover-to-node message is independently lost with the
      given rate. A node that misses a message it was expecting rejects
      (conservative verifier), unless the protocol supplies an [on_drop]
      default for that round. A dropped {e challenge} (node-to-prover) also
      makes the sending node reject: it has no valid transcript.
    - {b corrupt}: each delivered message is independently garbled with the
      given rate, by a per-round [corrupt : Rng.t -> 'r -> 'r] hook the
      protocol supplies for its payload type (see the helpers below). A round
      without a hook delivers corrupted messages unchanged.
    - {b crash}: each node independently crashes (for the whole execution)
      with the given rate. Crashed nodes are silent: their broadcast copies
      are skipped by neighbor comparison, and their local verdict is excluded
      from {!Network.decide} per [crash_mode] — [Crash_reject] counts a
      crashed node as rejecting, [Crash_vacuous] as vacuously accepting.
    - {b equivocate}: on every broadcast round the prover sends one
      deterministically chosen victim node a corrupted copy — exactly the
      attack {!Network.neighbors_agree} exists to catch. Requires the
      round's [corrupt] hook (the hooks below always return a value distinct
      from their input, so on a connected graph the neighbor comparison
      catches the split with probability 1).

    The cost ledger is unaffected by faults: it records what the prover
    transmitted, not what was delivered, so per-node bit costs are identical
    to the un-faulted run.

    {2 Determinism}

    Fault decisions are drawn from fresh splitmix64 streams keyed by
    [(trial seed, salt, round, node)] — never from the execution's main
    generator or any shared state. A zero-rate spec therefore leaves a run
    bit-identical to the un-faulted path, and faulted Monte Carlo sweeps are
    bit-identical for every worker-domain count. *)

type crash_mode =
  | Crash_reject  (** A crashed node counts as rejecting (safe default). *)
  | Crash_vacuous  (** A crashed node's verdict is ignored (vacuous accept). *)

type spec = {
  drop : float;  (** Per-message drop probability, in [0, 1]. *)
  corrupt : float;  (** Per-message corruption probability, in [0, 1]. *)
  crash : float;  (** Per-node crash probability, in [0, 1]. *)
  crash_mode : crash_mode;
  equivocate : bool;  (** Split every broadcast at one victim node. *)
}

val none : spec
(** All rates zero, no equivocation: behaves exactly like no fault layer. *)

val make :
  ?drop:float ->
  ?corrupt:float ->
  ?crash:float ->
  ?crash_mode:crash_mode ->
  ?equivocate:bool ->
  unit ->
  spec
(** All rates default to [0.], [crash_mode] to [Crash_reject].
    @raise Invalid_argument if a rate is outside [0, 1]. *)

val drop_only : float -> spec
val corrupt_only : float -> spec
val crash_only : ?crash_mode:crash_mode -> float -> spec
val equivocate_only : spec

val is_none : spec -> bool
(** No fault can ever fire under this spec. *)

val to_string : spec -> string
(** Canonical label, e.g. ["drop=0.1,corrupt=0.05"] or ["none"]; the format
    {!of_string} parses. Used as the [fault] field of run-log records. *)

val of_string : string -> spec
(** Parse a spec from a comma-separated list of [drop=R], [corrupt=R],
    [crash=R], [crash_mode=reject|vacuous], [equivocate] (and [none] / empty
    items, which are ignored). This is the [IDS_FAULT_SPEC] format.
    @raise Invalid_argument on an unknown key or unparsable rate. *)

val of_env : unit -> spec option
(** The spec named by the [IDS_FAULT_SPEC] environment variable, if set to a
    non-empty string. @raise Invalid_argument if set but unparsable. *)

(** {2 Runtime state (used by {!Network})} *)

type t
(** Fault state bound to one protocol execution: the spec, the trial seed
    the decision streams are keyed by, the crash set, and a round counter. *)

val create : seed:int -> n:int -> spec -> t
(** Fresh state for an [n]-node execution of trial [seed]. The crash set is
    decided here, keyed by [(seed, node)]. *)

val spec : t -> spec
val crash_mode : t -> crash_mode

val crashed : t -> int -> bool

val any_crashed : t -> bool
(** Did any node crash? Computed once by {!create}. *)

val next_round : t -> int
(** Advance the execution's round counter and return the index of the round
    that is starting; every channel operation is one round. *)

type 'r delivery = Delivered of 'r | Dropped

val deliver : t -> round:int -> node:int -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> 'r -> 'r delivery
(** The fate of one message at [(round, node)]: dropped, corrupted (when the
    corruption decision fires and a hook is present — the hook draws any
    randomness it needs from the same keyed stream), or delivered intact. *)

val equivocation : t -> round:int -> n:int -> (int * Ids_bignum.Rng.t) option
(** When the spec equivocates: the victim node for this broadcast round and
    the keyed stream the victim's corrupt hook should draw from. *)

(** {2 Corrupt hooks}

    Ready-made [corrupt] instances for the payload types the protocols
    exchange. Every hook returns a value distinct from its input — the
    property the equivocation guarantee rests on. *)

val flip_int_bit : bits:int -> Ids_bignum.Rng.t -> int -> int
(** Flip one uniformly chosen bit among the low [bits] (at least one). *)

val flip_nat_bit : bits:int -> Ids_bignum.Rng.t -> Ids_bignum.Nat.t -> Ids_bignum.Nat.t
(** Bignum variant of {!flip_int_bit}. *)

val flip_bool : Ids_bignum.Rng.t -> bool -> bool

val swap_entries : Ids_bignum.Rng.t -> int array -> int array
(** Swap two distinct positions of a copy of the array (intended for
    permutation image tables, whose entries are pairwise distinct — for
    arrays with repeated values the result may equal the input). Arrays of
    length < 2 are returned unchanged. *)

val corrupt_entry : (Ids_bignum.Rng.t -> 'a -> 'a) -> Ids_bignum.Rng.t -> 'a array -> 'a array
(** [corrupt_entry corrupt] garbles one uniformly chosen entry of a copy of
    a row with [corrupt] (a row of per-copy aggregates, say). It draws the
    position first, then lets [corrupt] draw. Empty rows are returned
    unchanged. *)
