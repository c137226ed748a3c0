(** The linear hash family of Theorem 3.2.

    For a prime [p] the family [H = { h_a | a in [p] }] hashes boolean
    vectors [x] of length [m] by polynomial evaluation:

    {v h_a(x) = sum_j x_j a^(j+1)  (mod p) v}

    It is linear — [h_a(x + x') = h_a(x) + h_a(x')] with coordinatewise sums
    taken mod [p] — and two distinct vectors collide with probability at most
    [m / p] over a uniform index [a], because their difference is a non-zero
    polynomial in [a] of degree at most [m] (Schwartz–Zippel).

    The protocols hash [n x n] boolean matrices (so [m = n^2 + n] with the
    convenient 1-based exponents), writing a matrix as the sum of its rows
    [\[v, r\]] (the matrix that is [r] in row [v] and zero elsewhere,
    Section 3.1.1). Row [v] occupies coordinates [v*n .. v*n + n - 1], hence

    {v h_a([v, r]) = a^(v*n) * sum_{w in r} a^(w+1) v}

    which a network node can evaluate locally from its own neighborhood. *)

val row_poly : 'a Field.t -> 'a -> Ids_graph.Bitset.t -> 'a
(** [row_poly f a s] is [sum_{w in s} a^(w+1)]: the hash of the row content
    [s] before the row-position shift. *)

val row_hash : 'a Field.t -> 'a -> n:int -> row:int -> Ids_graph.Bitset.t -> 'a
(** [row_hash f a ~n ~row s] is [h_a(\[row, s\])] for an [n x n] matrix. *)

val matrix_hash : 'a Field.t -> 'a -> n:int -> (int * Ids_graph.Bitset.t) list -> 'a
(** Hash of a sum of rows: [sum h_a(\[v, s\])] over the listed [(v, s)]
    pairs. Duplicate row indices are allowed (the matrix sum is over the
    field, exactly as in Lemma 3.1). *)

val graph_hash : 'a Field.t -> 'a -> Ids_graph.Graph.t -> 'a
(** [graph_hash f a g] hashes the full adjacency matrix
    [sum_v \[v, N(v)\]] of [g] (closed neighborhoods). *)

val permuted_graph_hash : 'a Field.t -> 'a -> Ids_graph.Graph.t -> Ids_graph.Perm.t -> 'a
(** [permuted_graph_hash f a g rho] hashes
    [sum_v \[rho(v), rho(N(v))\]] — the rho-permuted adjacency matrix of
    Lemma 3.1. Equal to [graph_hash f a g] for every [a] iff [rho] is an
    automorphism (and with high probability only then). *)

val collision_bound : n:int -> p:int -> float
(** The Theorem 3.2 guarantee [m / p] for [n x n] matrices ([m = n^2 + n]). *)

(** {1 Batched evaluation}

    Exact soundness analysis evaluates the same hash at every index of the
    family, which is much faster with a precomputed power table. *)

val powers : 'a Field.t -> 'a -> int -> 'a array
(** [powers f a m] is [\[| a^0; a^1; ...; a^m |\]]. *)

val powers_memo : 'a Field.t -> int -> 'a -> 'a array
(** [powers_memo f m] is a caching [fun a -> powers f a m]: one table per
    distinct index, shared across calls. The cache is a plain hash table —
    use one memo per execution, not across domains. *)

val row_hash_pow : 'a Field.t -> powers:'a array -> n:int -> row:int -> Ids_graph.Bitset.t -> 'a
(** {!row_hash} using a table from [powers] (of length at least [n^2+n+1]). *)

val graph_hash_pow : 'a Field.t -> powers:'a array -> Ids_graph.Graph.t -> 'a

(** {1 Two-table row evaluation}

    One matrix row needs only [a^1 .. a^n] for its content and
    [a^(row*n)] for its position. Writing [a^(row*n) = (a^n)^row], two
    tables of about [n] entries each serve every row of an [n x n] matrix
    at one index, against [n^2 + n + 1] entries for {!powers}:

    {v h_a([v, s]) = hi.(v) * sum_{w in s} lo.(w + 1) v}

    is one table read, one multiplication and [|s|] additions, and the
    same field element as {!row_hash}. {!Api.node_term_into} evaluates
    the eps-API hash's row terms this way. *)

val row_tables : 'a Field.t -> 'a -> n:int -> 'a array * 'a array
(** [row_tables f a ~n] is [(lo, hi)] with [lo = powers f a n]
    ([a^0 .. a^n]) and [hi = powers f (a^n) (n - 1)]
    ([(a^n)^0 .. (a^n)^(n-1)]). *)

val permuted_graph_hash_pow :
  'a Field.t -> powers:'a array -> Ids_graph.Graph.t -> Ids_graph.Perm.t -> 'a
