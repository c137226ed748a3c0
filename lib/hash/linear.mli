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

(** {1 Two-table row evaluation}

    The one row path every protocol evaluates at a fixed index. One matrix
    row needs only [a^1 .. a^n] for its content and [a^(row*n)] for its
    position. Writing [a^(row*n) = (a^n)^row], two tables of about [n]
    entries each serve every row of an [n x n] matrix at one index:

    {v h_a([v, s]) = hi.(v) * sum_{w in s} lo.(w + 1) v}

    is one table read, one multiplication and [|s|] additions, and the
    same field element as {!row_hash} (field arithmetic is exact). The
    closed forms above stay as the reference the tabled forms are tested
    against; {!Api.node_term_into} evaluates the eps-API hash's row terms
    from the same tables. *)

val powers_into : ?lo:int -> ?hi:int -> 'a Field.t -> 'a -> 'a array -> unit
(** [powers_into ~lo ~hi f a t] fills [t.(i) = t.(lo) * a^(i - lo)] for
    [lo < i < hi] (default: the whole array), i.e. the powers of [a] when
    [t.(lo)] is [a^lo]. *)

val powers : 'a Field.t -> 'a -> int -> 'a array
(** [powers f a m] is [\[| a^0; a^1; ...; a^m |\]]. *)

type 'a tables = 'a array * 'a array
(** [(lo, hi)] for one index [a] of an [n x n] matrix hash: see
    {!row_tables}. *)

val row_tables : 'a Field.t -> 'a -> n:int -> 'a tables
(** [row_tables f a ~n] is [(lo, hi)] with [lo = powers f a n]
    ([a^0 .. a^n]) and [hi = powers f (a^n) (n - 1)]
    ([(a^n)^0 .. (a^n)^(n-1)]). *)

val row_tables_memo : 'a Field.t -> n:int -> 'a -> 'a tables
(** [row_tables_memo f ~n] is a caching [fun a -> row_tables f a ~n]: one
    pair per distinct index, shared across calls. The cache is a plain hash
    table, so use one memo per execution, not across domains. *)

val row_hash_tables : 'a Field.t -> 'a tables -> row:int -> Ids_graph.Bitset.t -> 'a
(** [row_hash_tables f (row_tables f a ~n) ~row s] is [row_hash f a ~n ~row s].
    @raise Invalid_argument if [row] is outside [\[0, n)]. *)

val node_hash_tables : 'a Field.t -> 'a tables -> Ids_graph.Graph.t -> int -> 'a
(** [node_hash_tables f t g v] is
    [row_hash_tables f t ~row:v (Graph.closed_neighborhood g v)]: node
    [v]'s own row of [g]'s adjacency matrix, read from [g]'s shared
    adjacency row without building a set.
    @raise Invalid_argument if [t] was built for another [n]. *)

val permuted_node_hash_tables : 'a Field.t -> 'a tables -> Ids_graph.Graph.t -> Ids_graph.Perm.t -> int -> 'a
(** [permuted_node_hash_tables f t g rho v] is
    [row_hash_tables f t ~row:(rho v) (rho (Graph.closed_neighborhood g v))]:
    node [v]'s row of the rho-permuted matrix, summed over the preimages
    (rho is injective) without building the image set.
    @raise Invalid_argument if [t] was built for another [n]. *)

val mapped_node_hash_tables : 'a Field.t -> 'a tables -> Ids_graph.Graph.t -> map:int array -> int -> 'a
(** [mapped_node_hash_tables f t g ~map v] is
    [row_hash_tables f t ~row:map.(v) { map.(u) | u in N\[v\] }]: node
    [v]'s row of the matrix mapped by an arbitrary vertex map, which a
    cheating prover need not make injective (each image vertex counts
    once). Equal to {!permuted_node_hash_tables} when [map] is a
    permutation. Every [map.(u)] for [u] in [N\[v\]] must be a vertex.
    @raise Invalid_argument if [map.(v)] is not a vertex of [g]. *)

val graph_hash_tables : 'a Field.t -> 'a tables -> Ids_graph.Graph.t -> 'a
(** {!graph_hash} from the tables of its index. *)

val permuted_graph_hash_tables : 'a Field.t -> 'a tables -> Ids_graph.Graph.t -> Ids_graph.Perm.t -> 'a
(** {!permuted_graph_hash} from the tables of its index. *)
