(** The declarative cheat-strategy space behind the E17 soundness frontier.

    The soundness theorems quantify over {e every} cheating prover; the
    named registry ({!registry}, served by {!Adversary}) samples that space
    at a handful of points. This module turns the space itself into a
    value: per protocol, a small grid of typed axes — permutation
    perturbations, per-round response distortions (forged or offset sums,
    a skewed challenge echo), broadcast equivocation, and a fault-model
    knob — whose points {!Ids_engine.Search} can climb. A strategy is a
    replayable value: the protocol, a seed, and one level per axis, with a
    textual codec ({!encode} / {!decode}) so best-found strategies can be
    pinned in tests and serialized into {!Ids_engine.Runlog} prover labels
    (the provers built here carry their encoding as their name).

    {2 Axes}

    Every protocol's last axis is the fault knob
    [none | equivocate | crash-vacuous] (crash-vacuous is the PR2 finding:
    10% crashed nodes judged vacuously). The rest:

    - [sym_dmam] — [perm] (fallback | random | identity | rotation),
      [split] (none | root: split-broadcast the claimed root),
      [sums] (consistent | forge-root-b | offset-b),
      [echo] (root | skew: echo the root's challenge plus one);
    - [sym_dam] — [perm] (search | fallback | random | identity), [sums],
      [echo];
    - [dsym] — [perm] (sigma | swapped), [root] (zero | one), [sums],
      [echo];
    - [gni] — [commit] (search | deny-identity | deny-random |
      identity-always), [reveal] (honest | patch-root).

    Every registry cheater is defined as a [seed = 0], [fault = none] point
    of this grid and nowhere else, so the search dominates the registry by
    construction. *)

type protocol = Sym_dmam | Sym_dam | Dsym | Gni

val protocol_label : protocol -> string
(** ["sym_dmam"], ["sym_dam"], ["dsym"], ["gni"]. *)

val protocol_of_label : string -> protocol option

val axis_names : protocol -> string array

val levels : protocol -> string array array
(** [levels p].(i) are the level labels of axis [i], indexed by level. *)

val space : protocol -> Ids_engine.Search.space

val fault_axis : protocol -> int
(** Index of the fault axis (always the last one) — frozen to level 0 for
    the paper-model frontier. *)

type t = private { protocol : protocol; seed : int; point : int array }
(** One strategy: a grid point plus the seed its randomized levels draw
    from. Build with {!make} or {!decode}. *)

val make : protocol -> seed:int -> int array -> t
(** Validates and copies the point.
    @raise Invalid_argument on a wrong arity or an out-of-range level. *)

val equal : t -> t -> bool

val encode : t -> string
(** A single-line label, e.g.
    ["strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none"]. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}: [decode (encode s) = Ok s]. Errors carry the
    1-based token position, what was expected, and the offending line —
    unknown fields, unknown levels, bad seeds, truncated and overlong
    encodings are all rejected. *)

val fault_of : t -> Ids_network.Fault.spec
(** The fault spec the strategy's fault level denotes ([none] ↦
    {!Ids_network.Fault.none}, [equivocate] ↦ equivocation on every
    broadcast, [crash-vacuous] ↦ 10% crashes judged vacuously). *)

(** {1 Prover instantiation}

    Each constructor materializes the strategy as a prover for its
    protocol, with [prover_name = encode t] so run logs record the full
    strategy. @raise Invalid_argument on a protocol mismatch. *)

val sym_dmam_prover : t -> Sym_dmam.prover
val sym_dam_prover : t -> Sym_dam.prover
val dsym_prover : t -> Dsym.prover
val gni_prover : t -> Gni.prover

(** {1 The named registry} *)

val registry : protocol -> (string * t) list
(** The named cheaters of a protocol, in registry order, each a
    [seed = 0], [fault = none] point (e.g. sym_dmam's forged-sums is
    [perm=random split=none sums=forge-root-b echo=root]). {!Adversary}
    serves them as provers named ["adversary:<name>"]. *)

(** {1 Frontier cases (E17)} *)

type frontier_case = {
  protocol : protocol;
  label : string;
  n : int;  (** Network size of the fixed NO instance. *)
  space : Ids_engine.Search.space;
  bound : float;  (** The paper's per-run soundness bound on this instance. *)
  bound_label : string;  (** e.g. ["(n^2+n)/p"]. *)
  strategy_of : Ids_engine.Search.point -> t;
      (** The seed-0 strategy a search point denotes. *)
  trial : Ids_engine.Search.point -> int -> Ids_engine.Accum.trial;
      (** One seeded protocol run of the point's strategy (faults per its
          fault level) — pure in [(point, seed)], so searches are
          bit-identical across [IDS_DOMAINS]. *)
  registry : (string * (int -> Ids_engine.Accum.trial)) list;
      (** {!registry}'s cheaters on the same instance and parameters — the
          [trial]s of their points — for the frontier comparison. *)
}

val frontier_cases : unit -> frontier_case list
(** The four fixed NO instances the frontier measures, one per protocol —
    derived from hard-coded seeds, identical in every process:
    [sym_dmam] (n = 8 asymmetric), [sym_dam] (n = 6 asymmetric),
    [dsym] (side 6, half-path 1, perturbed second side — 15 nodes),
    [gni] (n = 6 isomorphic pair, single repetition, where the honest
    search itself is the strongest cheat at rate ≈ n!/q). *)
