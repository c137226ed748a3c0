(** Protocol 2: the [dAM\[O(n log n)\]] protocol for Graph Symmetry
    (Theorem 1.3, Section 3.2).

    In dAM the random challenge comes {e first}, so the prover cannot be
    forced to commit to the permutation before the hash index is known. The
    paper compensates with two changes to Protocol 1:

    - the prover broadcasts the {e full} permutation [rho : V -> V]
      ([n log n] bits) rather than each node's own image;
    - the hash family uses a prime [p in \[10 n^(n+2), 100 n^(n+2)\]]
      (arbitrary precision), so a union bound over all [n^n] mappings keeps
      the soundness error below 1/3 even though the prover picks [rho] after
      seeing the index.

    Rounds:
    + {b Arthur} — each node sends a random index [i_v in \[|H|\]]
      ([O(n log n)] bits);
    + {b Merlin} — broadcast [(rho, i, r)]; unicast [(t_v, d_v, a_v, b_v)].

    Verification is Protocol 1's, with the [b]-row computed from the
    broadcast table: node [v] checks its copy of
    [h_i(\[rho(v), rho(N(v))\])]. As in the paper (Theorem 3.5's proof),
    [rho] need not be validated as a permutation: Lemma 3.1's argument
    covers arbitrary non-identity mappings. *)

type params = { p : Ids_bignum.Nat.t; field : Ids_bignum.Nat.t Ids_hash.Field.t }

val params_for : seed:int -> Ids_graph.Graph.t -> params
(** A random prime in [\[10 n^(n+2), 100 n^(n+2)\]]. *)

type response = {
  rho : int array array;  (** broadcast: each node's copy of the full table *)
  index : Ids_bignum.Nat.t array;  (** broadcast *)
  root : int array;  (** broadcast *)
  parent : int array;  (** unicast *)
  dist : int array;  (** unicast *)
  a : Ids_bignum.Nat.t array;  (** unicast *)
  b : Ids_bignum.Nat.t array;  (** unicast *)
}

type prover = {
  name : string;
  respond : params -> Ids_graph.Graph.t -> Ids_bignum.Nat.t array -> response;
      (** Sees all challenges — dAM provers answer after Arthur speaks. *)
}

val honest : prover

(** {1 Strategy building blocks}

    Exposed so the E17 strategy space ({!Strategy}), whose seed-0 points
    are the registry adversaries, can compose cheats from them. *)

val respond_with_rho :
  params -> Ids_graph.Graph.t -> Ids_bignum.Nat.t array -> int array -> response
(** Consistent play for a given mapping table: root at the first vertex the
    table moves (vertex 0 if it moves none), echo of that root's challenge,
    true subtree sums for both matrices. *)

val fallback_table : int -> int array
(** The transposition [(0 1)] as a table — the honest prover's losing but
    well-formed move on asymmetric graphs. *)

val search_table :
  ?extra:int ->
  seed:int ->
  params ->
  Ids_graph.Graph.t ->
  Ids_bignum.Nat.t array ->
  int array
(** The challenge-aware collision search behind {!Strategy}'s [perm=search]: scan
    every transposition plus [extra] (default 20) seeded random non-identity
    permutations for a table colliding under the would-be root's revealed
    challenge; fall back to {!fallback_table} when none collides. *)

val run :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> Ids_graph.Graph.t -> prover -> Outcome.t
(** One execution. [fault] injects faults into every channel round (see
    {!Ids_network.Fault}); omitted or {!Ids_network.Fault.none} is the exact
    un-faulted path. *)
