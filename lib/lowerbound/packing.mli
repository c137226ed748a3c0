(** The packing argument of Section 3.4 (Lemma 3.12 and Theorem 1.4).

    A correct simple protocol of length [L] induces, for each side graph
    [F], a distribution over subsets of [{0,1}^L] — a vector in [\[0,1\]^d]
    with [d = 2^(2^L)]. Lemma 3.11 forces any two of them to be at L1
    distance at least 2/3, Lemma 3.12 shows at most [5^d] such vectors fit,
    and the family has [2^(Omega(n^2))] members, so
    [L = Omega(log log n)].

    Everything here is computed in log space (base 2), so the astronomically
    large quantities involved ([5^(2^(2^L))], [2^(n^2)]) stay representable. *)

val log2_ball_volume : d:int -> r:float -> float
(** [log2] of the L1-ball volume [(4r)^d / (d+1)!]. *)

val log2_packing_bound : d:int -> float
(** [log2] of Lemma 3.12's bound [5^d] on the number of pairwise
    1/2-separated distributions over a domain of size [d]. *)

val packing_bound_exact : d:int -> Ids_bignum.Nat.t
(** The exact value [5^d], for moderate [d]. *)

val log2_family_size : int -> float
(** A lower bound on [log2 |F(n)|] for the family of asymmetric, pairwise
    non-isomorphic graphs on [n] vertices: [n^2/2 - n log2 n - O(n)]
    (a [1/2] because there are [2^(n(n-1)/2)] labelled graphs; almost all
    are asymmetric for large [n], and dividing by [n!] merges isomorphism
    classes). Returns 0 when the estimate is vacuous (tiny [n]). *)

val min_protocol_length : int -> int
(** [min_protocol_length n]: the smallest [L] such that [5^(2^(2^L))] is at
    least the family size — the Theorem 1.4 lower bound
    [L >= log2 log2 (log2 |F(n)| / log2 5)], rounded up, at least 1. *)

val lower_bound_table : int list -> (int * float * int) list
(** For each [n]: [(n, log2 |F(n)|, min_protocol_length n)] — the data
    behind the [Omega(log log n)] curve. *)
