(** Execution context for interactive distributed proofs.

    A protocol execution alternates Arthur rounds (every node independently
    draws a random challenge and sends it to the prover) and Merlin rounds
    (the prover answers each node, by unicast or broadcast). This module
    simulates those exchanges over a network graph while charging every bit
    to the {!Cost} ledger, and implements the model's two response
    disciplines from Section 2.2 of the paper:

    - {b unicast}: the prover may give a different value to each node;
    - {b broadcast}: the prover must give all nodes the same value, enforced
      distributively — each node compares its copy with its neighbors' copies
      and rejects on mismatch (on a connected graph, any non-constant
      assignment is caught by some edge).

    The prover is just caller code: honest provers compute what the protocol
    prescribes, adversarial provers may supply arbitrary arrays.

    Every round takes and returns one array slot per node, so a round's
    delivered state is O(n) words plus whatever each slot points to. An
    unfaulted unicast or broadcast returns the prover's array itself. Each
    round is charged, faulted and traced in one place, so every protocol
    gets the same ledger, fault decisions and spans.

    {2 Fault injection}

    [create ?fault] threads a {!Fault.spec} through every channel primitive:
    messages can be dropped (the expecting node rejects, or receives the
    round's [on_drop] default), corrupted (via the round's [corrupt] hook),
    nodes can crash-silently, and broadcasts can be equivocated at a keyed
    victim node. Each channel operation is one fault {e round}; decisions are
    keyed by [(seed, round, node)], so faulted runs are deterministic in the
    trial seed. A [None] or {!Fault.none} spec is exactly the un-faulted
    path, and the cost ledger always records what the prover transmitted,
    delivered or not. *)

type t

val create : ?fault:Fault.spec -> seed:int -> Ids_graph.Graph.t -> t
(** Fresh execution over the given network graph. The seed determines all of
    Arthur's randomness and, independently, every fault decision. *)

val graph : t -> Ids_graph.Graph.t
val n : t -> int
val cost : t -> Cost.t
val rng : t -> Ids_bignum.Rng.t

val crashed : t -> int -> bool
(** Did this execution's fault layer crash node [v]? *)

val missed : t -> int -> bool
(** Has node [v] missed a message (dropped with no [on_drop] default) so
    far? Such a node rejects at {!decide} time. A crashed node is silent,
    so it never misses one: its verdict is {!decide}'s crash rule. *)

val take_missed : t -> bool array
(** Snapshot the per-node missed flags and clear them. For protocols that
    run many repetitions over one execution ({!val:decide} consults the
    {e live} flags, which otherwise accumulate): folding the snapshot into
    repetition [i]'s per-node verdicts scopes a drop to the repetition it
    occurred in instead of poisoning every later one, and leaves the flags
    clean for the final {!val:decide} over the aggregated verdicts. *)

val challenge : t -> bits:int -> (Ids_bignum.Rng.t -> 'c) -> 'c array
(** Arthur round: every node draws an independent challenge with the given
    generator and is charged [bits] towards the prover. Under faults, a
    dropped challenge marks the sending node as missed (it rejects: the
    prover never saw its challenge, so no transcript involving it is
    valid). Delivery failure is modeled purely as that decide-time
    rejection — the drawn value is still present in the returned array and
    observable by prover code; soundness must not rely on hiding it. *)

val unicast : t -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> ?on_drop:'r -> bits:int -> 'r array -> 'r array
(** Merlin unicast round: the prover supplies one value per node; every node
    is charged [bits] received. Under faults, each delivery can corrupt (via
    [corrupt], see {!Fault}'s ready-made hooks) or drop ([on_drop] default,
    else the node rejects). @raise Invalid_argument on length mismatch. *)

val broadcast : t -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> ?on_drop:'r -> bits:int -> 'r array -> 'r array
(** Merlin broadcast round: like {!unicast}, but the values are expected to
    be all equal; use {!neighbors_agree} in the verification phase to
    apply the paper's neighbor-comparison check. Under an equivocating fault
    spec, one keyed victim node's copy is additionally corrupted ([corrupt]
    hook required) — the attack the consistency check exists to catch. *)

val broadcast_uniform : t -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> ?on_drop:'r -> bits:int -> 'r -> 'r array
(** Honest broadcast: replicate one value to all nodes and charge it. The
    faulted deliveries are written into the one replicated array. *)

val neighbors_agree : t -> (int -> int -> bool) -> int -> bool
(** [neighbors_agree t same v] is the local broadcast check at node [v]:
    [same u v] holds for every neighbor [u] that did not crash (a crashed
    neighbor is silent, so there is no copy to compare). [same u v]
    compares all of the round's broadcast values in one pass. Give it each
    payload's own equality ([Nat.equal], ...): polymorphic equality on a
    type with structurally distinct but equal values would make an honest
    broadcast look like an equivocation. [neighbors_agree t same] applied
    alone is a check that allocates nothing per node; it keeps the node in
    a cell of its own, so use one per domain. *)

val decide : t -> (int -> bool) -> bool
(** [decide t out] runs the local decision [out v] at every node and accepts
    iff all nodes accept (the paper's global acceptance rule). Nodes that
    missed a message reject. Crashed nodes never run [out]: they count as
    rejecting under {!Fault.Crash_reject} and are skipped under
    {!Fault.Crash_vacuous}. It is [decide_ranges ~domains:1]. *)

val decide_ranges : t -> domains:int -> (unit -> int -> bool) -> bool
(** {!decide} with the nodes split into [Ids_engine.Scheduler.ranges
    ~domains ~n] and the ranges checked on up to [domains] domains. Each
    range calls [make ()] once, on the domain that checks it, and runs the
    resulting [out] over its nodes, so per-instance scratch is never
    shared. The verdict is the conjunction of the ranges' verdicts, the
    same for every [domains], provided [out v] depends only on [v]: [make]
    and [out] must be safe to run on several domains at once (they may
    read shared state, not write it). *)
