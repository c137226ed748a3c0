(** Distributed almost pairwise-independent hashing (Section 4).

    The Goldwasser–Sipser protocol needs a hash from n x n adjacency matrices
    into a range [\[q\]] with [q = Theta(n!)] such that for [x1 <> x2] and any
    targets [y1, y2]:

    + [Pr(h x1 = y1)  =  1 / q]                     (uniform marginals), and
    + [Pr(h x1 = y1 /\ h x2 = y2) <= (1 + eps) / q^2]   (eps-API).

    An exactly pairwise-independent family needs a seed as long as the input
    (Theta(n^2) field elements), which no node can afford; the conference
    paper relaxes to eps-API and defers its construction to the full version.
    We build a standard substitute with the same interface, cost and
    guarantees (documented in DESIGN.md):

    - an {b inner layer} of [k] independent copies of the Theorem 3.2 linear
      matrix hash, [z_i = h_{a_i}(x)], giving a vector [z in [q]^k]. Distinct
      matrices make all [k] coordinates collide with probability at most
      [((n^2 + n) / q)^k] (independent Schwartz–Zippel events). Each copy is
      a sum of per-row terms, so it aggregates up a spanning tree by field
      addition and every node can evaluate its own row's term locally;
    - an {b outer layer} [y = b + sum_i c_i z_i mod q] with uniform
      [(c_1..c_k, b)], which is exactly pairwise independent on distinct
      inner vectors and makes the marginal exactly uniform.

    The composition satisfies (1) exactly and (2) with
    [eps = q * ((n^2 + n) / q)^k]; with [q ~ 4 n!] and [k = 3] this is
    far below 1 for every [n >= 6], which is what the acceptance-gap
    calculation of the GNI protocol needs (see {!Ids_proof.Gni}). *)

type 'a spec = {
  points : 'a array;  (** Inner evaluation points [a_1 .. a_k]. *)
  coeffs : 'a array;  (** Outer coefficients [c_1 .. c_k]. *)
  shift : 'a;  (** Outer additive term [b]. *)
}

val default_copies : int
(** The [k] used by the GNI protocol (3). *)

val random_spec : 'a Field.t -> k:int -> Ids_bignum.Rng.t -> 'a spec

val spec_bits : 'a Field.t -> k:int -> int
(** Bits to transmit a spec: [(2k + 1)] field elements. *)

val spec_ok : k:int -> in_field:('a -> bool) -> 'a spec -> bool
(** The range check a verifier applies to a spec the prover sent: [k]
    points and [k] coefficients, and every element satisfies [in_field].
    A spec that passes is safe to hand to {!tables} and {!finalize}. *)

val row_term : 'a Field.t -> 'a spec -> n:int -> row:int -> Ids_graph.Bitset.t -> 'a array
(** The inner-layer contribution of one matrix row: the vector
    [(h_{a_i}(\[row, s\]))_i]. This is what a single network node computes
    locally for the row it owns. *)

(** {2 Tabled row terms}

    {!row_term} recomputes every power it needs. A node or prover that
    evaluates many rows under one spec instead builds, per inner point
    [a_i], the two tables of {!Linear.row_tables}: [lo_i = a_i^0 .. a_i^n]
    and [hi_i = (a_i^n)^0 .. (a_i^n)^(n-1)], [2k(n+1)] field elements in
    all. Copy [i] of row [v]'s term is then
    [hi_i.(v) * sum_{w in s} lo_i.(w + 1)]: one multiplication and [|s|]
    additions, and the same field element as {!row_term}. *)

type 'a tables
(** Per-copy power tables for one spec's inner points. *)

val tables : ?domains:int -> 'a Field.t -> 'a spec -> n:int -> 'a tables
(** Build the tables for an [n x n] matrix. Only [spec.points] is read.
    Each copy's two tables are independent power chains, [2k] in all; with
    [domains > 1] each chain is cut at the {!Ids_engine.Scheduler.ranges}
    bounds and the segments are built as tasks on the pool (default [1]:
    built in the caller). The tables are the same for every [domains]. *)

type 'a memo
(** One table set per distinct point vector, for one field and one [n]:
    the honest prover and every verifier node of one execution evaluate
    under the same points, so they can read the same tables. Only {!tables}
    fills it, so whoever holds a memo can read tables but not forge them. *)

val memo : unit -> 'a memo

val memo_tables : ?domains:int -> 'a memo -> 'a Field.t -> 'a spec -> n:int -> 'a tables
(** [memo_tables memo f spec ~n] is [tables ?domains f spec ~n], built on
    the first request for [spec.points] and read from [memo] after. Not
    domain-safe: call it from one domain at a time. *)

val tables_for :
  ?domains:int -> 'a memo -> 'a Field.t -> n:int -> valid:('a spec -> bool) -> 'a spec array -> int -> 'a tables option
(** [tables_for memo f ~n ~valid specs] resolves, in one serial pass over
    [specs], the tables of every distinct point vector among the specs
    that satisfy [valid] ({!memo_tables}), and returns the lookup [v ->]
    [Some] (tables of [specs.(v)]) if [specs.(v)] satisfies [valid], else
    [None]. [valid] runs once per run of physically equal specs, and the
    lookup answers the first valid spec without running it again. The
    lookup only reads, so several domains may call it at once, as long as
    nothing adds to [memo] meanwhile. *)

val node_term_into : 'a Field.t -> 'a tables -> Ids_graph.Graph.t -> int -> 'a array -> int -> unit
(** [node_term_into f t g v dst off] writes node [v]'s k-vector
    [row_term f spec ~n ~row:v (Graph.closed_neighborhood g v)] into
    [dst.(off) .. dst.(off + k - 1)], where [t = tables f spec ~n]. It
    reads [g]'s shared adjacency row once for all k copies and builds no
    set. [node_term_into f] applied alone is a writer that allocates
    nothing per node: build one per domain and call it for each node (it
    keeps the current node's arguments in cells of its own).
    @raise Invalid_argument if [v] is not a vertex of [g] or [t] was
    built for another [n]. *)

val combine : 'a Field.t -> 'a array -> 'a array -> 'a array
(** Pointwise field addition: the spanning-tree aggregation step. *)

val zero_term : 'a Field.t -> k:int -> 'a array

val finalize : 'a Field.t -> 'a spec -> 'a array -> 'a
(** Apply the outer layer to a fully aggregated inner vector. *)

val hash_graph : 'a Field.t -> 'a spec -> Ids_graph.Graph.t -> 'a
(** Ground truth: the hash of a graph's full adjacency matrix (closed
    neighborhoods), computed centrally. Provers use this to search for
    preimages; tests use it to validate the distributed aggregation. *)

val epsilon : 'a Field.t -> n:int -> k:int -> q:float -> float
(** The analytical [eps] bound [q ((n^2+n)/q)^k] for the given parameters. *)
