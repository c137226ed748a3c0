(** The [dAMAM\[O(n log n)\]] protocol for Graph Non-Isomorphism (Section 4,
    Theorem 1.5): a distributed version of the Goldwasser–Sipser set-size
    estimation protocol.

    {2 Setting}

    The network graph is [G_0]; every node [v] additionally receives its row
    of a second graph [G_1] as input (Definition 4). Following the paper we
    restrict to {e asymmetric} [G_0, G_1] (the unrestricted case composes
    with the Symmetry protocol of Section 3.2), so the set

    {v S = { sigma(G_b) : sigma a permutation, b in {0,1} } v}

    has size exactly [2 n!] when [(G_0, G_1) in GNI] and [n!] otherwise.

    {2 The protocol}

    The distributed Goldwasser–Sipser skeleton is {!Gs}: Arthur draws an
    {!Ids_hash.Api} spec and target, Merlin commits to [(b, sigma)] (or
    admits a miss), Arthur draws an audit point, Merlin reveals the
    subtree aggregates. This module supplies only what is specific to the
    asymmetric case:
    - the candidate set: all [(sigma, b)], one table per commitment;
    - the layout: node [v] owns row [sigma(v)] of [A_{sigma(G_b)}], with
      content [sigma(N_b(v))], computable locally from the broadcast
      [sigma]; its single audit term is the same row's linear hash under
      the post-commitment audit point;
    - the seed salt [0x6b2f] and no NO-side slack;
    - the parameterized cheats of the E17 strategy space.

    Every message is [O(n log n)] bits ([q = Theta(n!)], so one field
    element is [Theta(n log n)] bits; [sigma] is [n log n] bits). The
    conference paper does not spell out which values travel in which of
    the four rounds; DESIGN.md documents the substitution. The audit round
    preserves the paper's A-M-A-M pattern and adds a post-commitment
    consistency hash; soundness rests on the deterministic aggregate checks
    plus the root's target equation, exactly as in the GS analysis.

    {2 Amplification}

    With [q] a prime in [\[4 n!, 8 n!\]] and the {!Ids_hash.Api} parameters,
    one repetition accepts with probability at least
    [(2 n!/q)(1 - (1+eps)/4)] on YES instances and at most [n!/q] on NO
    instances. The full protocol runs [t] independent repetitions and each
    node accepts iff at least [tau t] of them looked valid locally; the
    root's count is the sound one (only it verifies the target equation).
    The default [t] puts both error probabilities below 1/3 (Definition 2). *)

type instance = private {
  g0 : Ids_graph.Graph.t;
  g1 : Ids_graph.Graph.t;
  n : int;
  core : Gs.t;  (** candidates: every [(sigma, b)], in the prover's scan order *)
}

val make_instance : Ids_graph.Graph.t -> Ids_graph.Graph.t -> instance
(** @raise Invalid_argument if the sizes differ, [g0] is disconnected,
    either graph is symmetric (the paper's restriction), or [n > 8] (the
    exhaustive prover scans [2 n!] permutations). *)

val yes_instance : Ids_bignum.Rng.t -> int -> instance
(** A random non-isomorphic pair of asymmetric graphs ([(G_0,G_1) in GNI]). *)

val no_instance : Ids_bignum.Rng.t -> int -> instance
(** [G_1] is a random relabeling of [G_0] ([(G_0,G_1) not in GNI]). *)

type params = Gs.params
(** [set_size] is [n!]. *)

val params_for : ?repetitions:int -> seed:int -> instance -> params

val yes_rate_bound : params -> float
(** The analytical lower bound on the single-repetition acceptance
    probability for YES instances. *)

val no_rate_bound : params -> float
(** The analytical upper bound for NO instances ([n!/q]). *)

type prover = Gs.prover

val prover_name : prover -> string

val honest : prover

(** {1 Parameterized cheats (the E17 strategy space)} *)

type commit_mode =
  [ `Search  (** Honest preimage search; a miss is admitted (and loses). *)
  | `Deny of [ `Identity | `Random of int ]
    (** Honest search, but a miss is never admitted: commit to the given
        table (with [b = 0]) and hope — hopeless, since the failed search
        already ruled the table out, so the rate equals [`Search]'s. The
        [int] seeds the random table, keeping the cheat replayable. *)
  | `Always_identity
    (** Skip the search entirely and always commit to [(identity, g0)],
        betting on the identity hash landing on the target — winning with
        probability ~[1/q]. *)
  ]

type reveal_mode =
  [ `Honest
  | `Patch_root
    (** Patch the root's first inner aggregate so the outer target equation
        passes; the root's own aggregation check then fails instead. *)
  ]

val cheat : name:string -> commit:commit_mode -> reveal:reveal_mode -> prover
(** Compose a cheating prover from the two knobs above ({!Strategy}'s gni
    axes). *)

val run_single :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> instance -> prover -> Outcome.t
(** One repetition ({!Gs.run_single}); used to measure the
    single-repetition acceptance rates that the GS analysis predicts. *)

val run :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> instance -> prover -> Outcome.t
(** The full amplified protocol ({!Gs.run}). *)
