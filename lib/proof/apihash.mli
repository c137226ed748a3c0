(** Distributed evaluation of the Section 4 eps-API hash, end to end.

    The language is trivial — the prover claims [y = h_spec(G)] for the
    execution's own graph — but the protocol exercises exactly the
    tree-aggregability that Section 4 needs from the hash: Arthur draws the
    spec, Merlin commits to a BFS spanning tree, per-node subtree aggregates
    of the [k] inner row hashes, and the claimed hash; each node then checks
    its tree labels, recomputes its own row term from its O(degree) view,
    and verifies the Lemma 3.3 subtree equation, with the root applying the
    outer layer. Prover and verifier both evaluate row terms from per-copy
    power tables ({!Ids_hash.Api.tables}), so each node's k-vector costs
    O(k · degree) field operations and is computed once on each side. Completeness is exact; a wrong claim or any tampered
    aggregate breaks an equation at some node.

    Every round runs over {!Ids_network.Network}'s array rounds: the
    Arthur round derives only the root's generator
    ({!Ids_network.Network.challenge_rngs}), and every other round
    delivers one machine word per node: the aggregate round delivers node
    [v]'s k-row as the index [v] into the prover's flat array, and only a
    row a fault corrupts is copied out. So the protocol completes at
    n = 10⁶ with O(n) words of delivered state beside the prover's n·k
    aggregates, and O(max degree) transient state per verified node. This
    is the scale exemplar benchmarked by [bench/scale].

    {2 What runs where}

    The per-node work runs over node ranges
    ({!Ids_engine.Scheduler.map_ranges}) on [params.domains] domains: the
    honest prover's row terms, written into disjoint slots of the flat
    aggregate array, and the verifier's node checks, one
    {!Aggregation.verifier} per range inside
    {!Ids_network.Network.decide_ranges}. Neither phase allocates per
    node, so no minor collection stops the domains mid-phase. The power
    tables are built once per point vector, as pool tasks over segments
    of the [2k] power chains, kept in [params.tables], and read by every
    range and by both sides: the verifier resolves the tables of every
    delivered point vector in one serial pass before the split, and on an
    honest run finds the set the prover built. The prover's BFS is one
    more task of the batch that builds the tables, so it runs beside
    them. In the caller run the Arthur round (one generator and one spec
    draw), {!Aggregation.accumulate} over BFS's visit order in reverse,
    and the six Merlin rounds; with no crashed node and tracing off, each
    round charges the ledger once, not once per node. No randomness is
    drawn in a split section, so the {!Outcome.t} is the same for every
    domain count. [domains] reaches the run the [Engine.run ?domains] way:
    {!run}'s [?domains] goes to {!params_for}, which defaults to
    {!Ids_engine.Engine.default_domains} ([IDS_DOMAINS]). Inside an
    engine trial the split runs inline (see {!Ids_engine.Scheduler}).

    Each phase runs under an {!Ids_obs.Obs} span: [apihash.arthur],
    [apihash.bfs_tables], [apihash.row_terms], [apihash.accumulate] (the
    last three inside the honest prover), [apihash.merlin] and
    [apihash.decide], all inside [apihash.run]. *)

type params = {
  q : int;
  field : int Ids_hash.Field.t;
  copies : int;
  domains : int;  (** Domains the per-node phases split over. *)
  tables : int Ids_hash.Api.memo;
      (** This execution's power tables: the honest prover builds the set
          for the root's spec, and the verifier reads it back for every
          node that received the same points. *)
}

val params_for : ?domains:int -> ?k:int -> seed:int -> Ids_graph.Graph.t -> params
(** Modulus, copy count, domain count and an empty table memo for one
    execution on a graph. The modulus is a seeded random prime in
    [\[4 m^(3/2), 8 m^(3/2)\]] for [m = n² + n] — the least growth rate
    with [eps < 1] at [k = 3]. Below [2^31] the field is
    {!Ids_hash.Field.int_field}, above it {!Ids_hash.Field.int62_field}.
    For [m <= 2^40] the prime is drawn from that interval (its upper end
    clamped to [max_int] where it overflows). Past [m = 2^40] the interval
    itself leaves the native range and [q] is fixed at [2^62 - 57], the
    largest prime below [2^62]: completeness holds for every [q], and
    soundness degrades only past that point (see the DESIGN.md
    discussion). [k] defaults to {!Ids_hash.Api.default_copies}, [domains]
    to {!Ids_engine.Engine.default_domains} (at least 1); neither changes
    the draw.
    @raise Invalid_argument if [k < 1]. *)

val epsilon : params -> n:int -> float
(** The analytical eps-API bound for these parameters. *)

(** The prover's full message: spanning-tree labels, flattened n×k subtree
    aggregates ([agg.((v * copies) + i)] is copy [i] at node [v]), and the
    claimed hash. *)
type advice = {
  root : int;
  parent : int array;
  dist : int array;
  agg : int array;
  claim : int;
}

val honest_advice : params -> int Ids_hash.Api.spec -> root:int -> Ids_graph.Graph.t -> advice

type prover = params -> int Ids_hash.Api.spec -> root:int -> Ids_graph.Graph.t -> advice

val honest : prover
(** {!honest_advice}: its BFS beside the table batch and its row terms
    split over [params.domains]. *)

val adversary_wrong_claim : prover
(** Honest advice with the claimed hash shifted: rejected with
    probability 1 (the root's finalize equation). *)

val adversary_corrupt_agg : int -> prover
(** Honest advice with the named node's first inner aggregate shifted:
    rejected with probability 1 (a subtree equation at that node or its
    parent). *)

val response_bits_per_node : int Ids_hash.Field.t -> k:int -> int -> int
(** Prover bits each node receives across all Merlin rounds:
    [Theta(k log n)]. *)

val run :
  ?domains:int ->
  ?fault:Ids_network.Fault.spec ->
  ?prover:prover ->
  ?k:int ->
  seed:int ->
  root:int ->
  Ids_graph.Graph.t ->
  Outcome.t
(** One execution on a connected graph: spec challenge (root's draw only), spec /
    claim / root broadcasts, tree-label and aggregate unicasts, local
    verification inside {!Ids_network.Network.decide_ranges}.
    Deterministic in [seed], whatever [domains] (passed to
    {!params_for}); the fault layer applies to every round.
    @raise Invalid_argument if [root] is out of range. *)
