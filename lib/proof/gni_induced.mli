(** The marked-subgraph formulation of GNI (Section 2.3's alternative
    definition): there is one network graph [G]; every node carries a mark
    from [{0, 1, ⊥}], and the nodes must decide whether the subgraph induced
    by the 0-marked nodes is {e not} isomorphic to the subgraph induced by
    the 1-marked ones. Unlike Definition 4, nodes here may communicate over
    the edges of [G] as usual — in particular, they exchange marks with
    their neighbors for free (node-to-node communication is not charged by
    the paper's cost measure).

    The protocol is Goldwasser–Sipser again, estimating the size of the
    compensated set

    {v S = { (embedded copy of H_b, automorphism) : b in {0,1} } v}

    where a copy of [H_b] is named by a full permutation [psi] of the
    vertex namespace ([psi] restricted to the marked class does the
    embedding; broadcasting a full permutation keeps it locally checkable).
    With the automorphism compensation of {!Gni_full}, each side contributes
    exactly [P(n, k) = n! / (n-k)!] elements regardless of the sides'
    symmetries, so [|S| = 2 P(n,k)] iff the induced subgraphs are
    non-isomorphic and [P(n,k)] otherwise — and sides as small as [k = 4]
    (where every graph is symmetric) work.

    The hashed object is the [2n x n] stack of (a) the embedded adjacency
    matrix [sum_{u marked b} \[psi(u), psi(N_b(u))\]] (closed rows, so the
    matrix also encodes which vertices carry the copy) and (b) the embedded
    automorphism rows [\[n + psi(u), {psi(alpha(u))}\]]. Marked-[b] nodes
    own their two rows; everyone else contributes zero and participates in
    the aggregation. The post-commitment audit point checks Lemma 3.1's
    equation for [alpha] on the induced matrix, which also forces
    [alpha] to fix the marked class setwise.

    The rounds, checks and amplification are {!Gs}'s. Specific to this
    variant: the candidate set, the two tables [[|psi; alpha|]], the
    layout above (unmarked nodes own no rows and contribute zero audit
    terms), the seed salt [0x77aa], and the NO-side slack
    [((2n)^2 + 2n)/q] — looser than the width-[n] audit needs, but safe. *)

type instance = private {
  g : Ids_graph.Graph.t;
  marks : int array;  (** 0, 1, or -1 for ⊥ *)
  n : int;
  k : int;  (** size of each marked class *)
  h0 : Ids_graph.Graph.t;  (** induced subgraph of the 0-class, relabelled *)
  h1 : Ids_graph.Graph.t;
  core : Gs.t;  (** candidates: one [(psi, b, alpha)] per element of S *)
}

val make_instance : Ids_graph.Graph.t -> int array -> instance
(** @raise Invalid_argument if [g] is disconnected, marks are not in
    [{-1,0,1}], the classes differ in size, [k > 5], or the candidate
    enumeration would exceed [2^21] elements. *)

val plant : Ids_bignum.Rng.t -> n:int -> h0:Ids_graph.Graph.t -> h1:Ids_graph.Graph.t -> instance
(** Build a random connected [n]-vertex network whose randomly placed marked
    classes induce exactly [h0] and [h1]. *)

val yes_instance : Ids_bignum.Rng.t -> int -> instance
(** Plants the non-isomorphic pair P4 (path) vs K1,3 (star) — both
    symmetric, exercising the compensation — in a random [n]-vertex
    network. *)

val no_instance : Ids_bignum.Rng.t -> int -> instance
(** Plants two copies of P4. *)

type params = Gs.params
(** [set_size] is [P(n, k)]. *)

val params_for : ?repetitions:int -> seed:int -> instance -> params

type prover

val prover_name : prover -> string

val honest : prover

val run_single :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> instance -> prover -> Outcome.t

val run :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> instance -> prover -> Outcome.t
