(** Unrestricted Graph Non-Isomorphism: the Goldwasser–Sipser protocol with
    the automorphism-compensation fix (Section 4's "fixed cleverly in [15]").

    {!Gni} restricts to asymmetric graphs so that [|S| = n!] vs [2 n!]. The
    full construction drops the restriction by estimating the size of the
    {e compensated} set

    {v S = { (H, beta) : H isomorphic to G_0 or G_1, beta in Aut(H) } v}

    For each [b], the pairs [(H, beta)] with [H ≅ G_b] number exactly [n!]
    {e regardless of symmetry}: the [n!/|Aut(G_b)|] isomorphic copies each
    carry [|Aut(G_b)|] automorphisms. So again [|S| = 2 n!] iff
    [(G_0, G_1) in GNI] and [n!] otherwise.

    The prover's response encodes an element of [S] as [(sigma, b, alpha)]
    with [alpha in Aut(G_b)]; the represented pair is
    [H = sigma(G_b)], [beta = sigma alpha sigma^(-1)]. The hashed object is
    the [2n x n] 0/1 matrix stacking [A_H] on top of the permutation matrix
    of [beta]; node [v] owns rows [sigma(v)] (content [sigma(N_b(v))]) and
    [n + sigma(v)] (content [{sigma(alpha(v))}]), both computable locally
    from the broadcast [sigma] and [alpha].

    {b Where the second Arthur round earns its keep.} The prover must not be
    able to smuggle a non-automorphism [alpha] (that would inflate [S] to
    [n! * n^n]). No node can check [alpha in Aut(G_b)] locally — it would
    need other nodes' rows. Instead the nodes run the Lemma 3.1 check from
    Protocol 1: [sum_v \[v, N_b(v)\] = sum_v \[alpha(v), alpha(N_b(v))\]],
    compared under a hash point drawn {e after} [alpha] is committed — which
    is exactly the audit challenge of the A-M-A-M pattern. A fake [alpha]
    survives with probability at most [(n^2+n)/q], which is folded into the
    NO-side bound.

    Costs remain [O(n log n)] per node per repetition ([sigma] and [alpha]
    broadcasts, a constant number of [Theta(n log n)]-bit field elements).

    The rounds, checks and amplification are {!Gs}'s. Specific to this
    variant: the deduplicated candidate set, the two tables [[|sigma;
    alpha|]], the layout above with the audit pair [(c, d)] (the root's
    "all audit aggregates agree" is [c = d]), the seed salt [0x51c7], the
    NO-side slack [(n^2+n)/q], and {!adversary_fake_automorphism}. *)

type instance = private {
  g0 : Ids_graph.Graph.t;
  g1 : Ids_graph.Graph.t;
  n : int;
  aut0 : int array list Lazy.t;  (** Aut(G_0) as image tables. *)
  aut1 : int array list Lazy.t;
  core : Gs.t;
      (** candidates: distinct representatives [(sigma, b, alpha)] of the
          elements of [S], one per pair [(H, beta)]. *)
}

val make_instance : Ids_graph.Graph.t -> Ids_graph.Graph.t -> instance
(** Like {!Gni.make_instance} but without the asymmetry restriction.
    @raise Invalid_argument if sizes differ, [g0] is disconnected, [n > 7],
    or an automorphism group is so large that enumerating
    [n! * |Aut|] pairs is impractical ([|Aut| > 256]). *)

val yes_instance : Ids_bignum.Rng.t -> int -> instance
(** A non-isomorphic pair in which at least one side is symmetric — the
    instances {!Gni} cannot handle. *)

val no_instance : Ids_bignum.Rng.t -> int -> instance
(** An isomorphic pair of symmetric graphs. *)

type params = Gs.params
(** [set_size] is [n!]; [no_bound] includes the fake-automorphism term
    [(n^2+n)/q]. *)

val params_for : ?repetitions:int -> seed:int -> instance -> params

type prover

val prover_name : prover -> string

val honest : prover

val adversary_fake_automorphism : prover
(** On repetitions with no genuine preimage, commits a random
    non-automorphism [alpha] (inflating the candidate set it searches); the
    post-commitment audit hash catches it with probability
    [1 - (n^2+n)/q]. *)

val run_single :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> instance -> prover -> Outcome.t

val run :
  ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> instance -> prover -> Outcome.t
