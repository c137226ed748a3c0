(** The "hash up the spanning tree" step of Lemma 3.3, shared by every
    protocol that aggregates a linear hash: Protocols 1 and 2
    ({!Sym_dmam}, {!Sym_dam}), {!Dsym}, the Section 4 eps-API run
    ({!Apihash}) and every Goldwasser–Sipser GNI variant ({!Gs}).

    The prover supplies per-node labels [(parent, dist)] plus a claimed root;
    each node runs the local checks of the Korman–Kutten–Peleg spanning-tree
    proof-labeling scheme, then verifies that its claimed subtree aggregate
    equals its own term plus its children's claimed aggregates. Lemma 3.3:
    if every node accepts, the root's aggregate is the true total.

    {!verifier} is that node check, written once; the protocols supply only
    their rounds, their own terms and their extra range and root checks.
    The other functions are the prover-side sums and the label check the
    verifier is built from. *)

val in_range : int -> int -> bool
(** [in_range n x] is [0 <= x < n]. *)

val tree_check : Ids_graph.Graph.t -> root:int -> parent:int array -> dist:int array -> int -> bool
(** The Line-1 checks at node [v]: the root has distance 0 and is its own
    parent; every other node has an adjacent parent whose distance is one
    less. All values are range-checked so adversarial labels cannot crash
    verification. *)

val children : Ids_graph.Graph.t -> parent:int array -> int -> int list
(** [C(v) = { u in N(v) | t_u = v }] over the open neighborhood of [v]. *)

val accumulate : 'a Ids_hash.Field.t -> Ids_graph.Spanning_tree.t -> k:int -> 'a array -> unit
(** Prover-side, in place: [sums] holds [k] per-node terms flattened
    ([sums.((v * k) + i)] is copy [i] at [v]); on return each slot holds
    the subtree aggregate of its copy. One leaves-first pass
    ({!Ids_graph.Spanning_tree.leaves_first}) serves all [k] copies.
    @raise Invalid_argument if [Array.length sums <> n * k]. *)

val honest_sums : 'a Ids_hash.Field.t -> Ids_graph.Spanning_tree.t -> term:(int -> 'a) -> 'a array
(** Prover-side: for every [v], the true subtree aggregate
    [sum_{u in T_v} term u]. *)

val verifier :
  'a Ids_hash.Field.t -> in_field:('a -> bool) -> Ids_network.Network.t -> root:int array -> parent:int array ->
  dist:int array -> quantities:int -> claimed:(int -> int -> 'a) -> own:(int -> 'a array -> unit) ->
  same:(int -> int -> bool) -> local:(int -> bool) -> at_root:(int -> bool) -> int -> bool
(** The Lemma 3.3 decision of one node [v], for {!Ids_network.Network.decide}
    or a per-repetition [Array.init]. [root.(v)] is [v]'s copy of the
    broadcast root label; [claimed v j] is [v]'s claimed subtree aggregate
    of hashed quantity [j < quantities]. The checks, each run only if the
    ones before it hold:

    + every live neighbor [u] has [root.(u) = root.(v)] and [same u v]
      ({!Ids_network.Network.neighbors_agree}, one pass);
    + [local v], the protocol's own range and structure checks;
    + [root.(v)] names a vertex and {!tree_check} holds;
    + [in_field (claimed v j)] for every [j];
    + [own v sums] writes [v]'s terms to [sums.(0 .. quantities - 1)], and
      [claimed v j = sums.(j) + sum_{u in C(v)} claimed u j] for every [j];
    + at the labelled root only, [at_root v].

    So [local] must validate every value [own] and [at_root] read, and
    [claimed u j] must not raise for any [u] (read a malformed claim as a
    value outside the field). [sums] is scratch owned by the returned
    closure: one instance per domain. *)
