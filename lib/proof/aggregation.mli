(** Shared verification and prover-side helpers for the "hash up the
    spanning tree" pattern used by Protocols 1 and 2 and by the DSym and GNI
    protocols.

    The prover supplies per-node labels [(parent, dist)] plus a claimed root;
    each node runs the local checks of the Korman–Kutten–Peleg spanning-tree
    proof-labeling scheme, then verifies that its claimed subtree aggregate
    equals its own term plus its children's claimed aggregates. Lemma 3.3:
    if every node accepts, the root's aggregate is the true total. *)

val in_range : int -> int -> bool
(** [in_range n x] is [0 <= x < n]. *)

val tree_check : Ids_graph.Graph.t -> root:int -> parent:int array -> dist:int array -> int -> bool
(** The Line-1 checks at node [v]: the root has distance 0 and is its own
    parent; every other node has an adjacent parent whose distance is one
    less. All values are range-checked so adversarial labels cannot crash
    verification. *)

val children : Ids_graph.Graph.t -> parent:int array -> int -> int list
(** [C(v) = { u in N(v) | t_u = v }] over the open neighborhood of [v]. *)

val subtree_equation :
  'a Ids_hash.Field.t -> own:'a -> claimed:'a array -> children:int list -> int -> bool
(** The Line-3 check at node [v]:
    [claimed.(v) = own + sum_{u in children} claimed.(u)]. *)

val accumulate : 'a Ids_hash.Field.t -> Ids_graph.Spanning_tree.t -> k:int -> 'a array -> unit
(** Prover-side, in place: [sums] holds [k] per-node terms flattened
    ([sums.((v * k) + i)] is copy [i] at [v]); on return each slot holds
    the subtree aggregate of its copy. One leaves-first pass
    ({!Ids_graph.Spanning_tree.leaves_first}) serves all [k] copies.
    @raise Invalid_argument if [Array.length sums <> n * k]. *)

val honest_sums : 'a Ids_hash.Field.t -> Ids_graph.Spanning_tree.t -> term:(int -> 'a) -> 'a array
(** Prover-side: for every [v], the true subtree aggregate
    [sum_{u in T_v} term u]. *)
