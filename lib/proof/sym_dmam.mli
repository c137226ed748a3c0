(** Protocol 1: the [dMAM\[O(log n)\]] protocol for Graph Symmetry
    (Theorem 1.1, Section 3.1).

    Rounds, exactly as in the paper's Protocol 1 box:

    + {b Merlin} — broadcast a claimed spanning-tree root [r]; unicast to
      each node [v] its claimed image [rho_v] under a non-trivial
      automorphism, its claimed parent [t_v] and distance [d_v];
    + {b Arthur} — each node sends a random hash index [i_v in \[|H|\]];
    + {b Merlin} — broadcast an index [i] (claimed to be the root's
      challenge); unicast claimed subtree hash values [a_v, b_v in \[p\]].

    Every value is [O(log n)] bits: the hash family is Theorem 3.2's with a
    prime [p in \[10 n^3, 100 n^3\]].

    Verification (each node locally): broadcast consistency, the spanning
    tree checks of the Korman–Kutten–Peleg labeling, and the two hash-sum
    equations of Line 3. The root additionally checks [a_r = b_r],
    [rho_r <> r], and that [i] really is its own challenge — the step that
    forces the prover to commit to [rho] {e before} learning the hash index.

    Note on Line 3: the paper's text defines the [b]-row via the images of
    the node's {e children}; as the proof of Lemma 3.3 makes clear, the row
    of the permuted matrix [rho(A_G)] owned by [v] is
    [\[rho(v), rho(N(v))\]], computable because [v] sees [rho_u] for every
    neighbor [u]. We implement that (mathematically consistent) version. *)

type params = { p : int; field : int Ids_hash.Field.t }

val params_for : seed:int -> Ids_graph.Graph.t -> params
(** A random prime in Theorem 3.2's interval [\[10 n^3, 100 n^3\]]. *)

(** Prover-supplied values. Broadcast fields are per-node arrays too, so
    that adversaries can attempt inconsistent broadcasts (which the
    neighbor-comparison check catches on connected graphs). *)
type commitment = {
  root : int array;  (** broadcast *)
  rho : int array;  (** unicast: claimed image of each node *)
  parent : int array;  (** unicast *)
  dist : int array;  (** unicast *)
}

type response = {
  index : int array;  (** broadcast: the echoed hash index *)
  a : int array;  (** unicast: claimed subtree hashes of [A_G] *)
  b : int array;  (** unicast: claimed subtree hashes of [rho(A_G)] *)
}

type prover = {
  name : string;
  commit : params -> Ids_graph.Graph.t -> commitment;
  respond : params -> Ids_graph.Graph.t -> commitment -> int array -> response;
      (** Receives all nodes' challenges, like the paper's unbounded Merlin. *)
}

val honest : prover
(** Finds a non-trivial automorphism by exact search and follows the
    protocol. On an asymmetric (or disconnected) graph it has no valid
    strategy and plays a losing commitment. *)

(** {1 Strategy building blocks}

    Exposed so the E17 strategy space ({!Strategy}), whose seed-0 points
    are the registry adversaries, can compose cheats from them. *)

val commit_with_rho : Ids_graph.Graph.t -> Ids_graph.Perm.t -> commitment
(** A well-formed commitment to the given permutation: a spanning tree
    rooted at a vertex [rho] moves (vertex 0 if it moves none). *)

val respond_consistently :
  params -> Ids_graph.Graph.t -> commitment -> int array -> response
(** Consistent second-round play for whatever [rho] was committed: echo the
    root's challenge and send the true subtree sums for both matrices. *)

val fallback_rho : Ids_graph.Graph.t -> Ids_graph.Perm.t
(** The honest prover's losing but well-formed move when the graph is
    asymmetric: the transposition [(0 1)]. *)

val run :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> Ids_graph.Graph.t -> prover -> Outcome.t
(** Execute the protocol once. The seed drives Arthur's coins (and the
    default prime choice). [fault] injects faults into every channel round
    (see {!Ids_network.Fault}); omitted or {!Ids_network.Fault.none} is the
    exact un-faulted path. *)

(** {1 Analysis} *)

val acceptance_probability_exact : params -> Ids_graph.Graph.t -> Ids_graph.Perm.t -> float
(** Exact probability (over the hash index) that the consistent prover
    committed to [rho] makes all nodes accept: the fraction of indices
    [i in \[p\]] with [h_i(A_G) = h_i(rho(A_G))]. For an automorphism this is
    1; otherwise at most [(n^2+n)/p]. *)

val best_adversary_bound : ?sample:int -> seed:int -> params -> Ids_graph.Graph.t -> float
(** Upper envelope of {!acceptance_probability_exact} over all transpositions
    plus [sample] random permutations — an empirical stand-in for the
    "for all provers" quantifier on NO instances. *)
