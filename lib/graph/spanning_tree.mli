(** BFS spanning trees with parent and distance labels.

    Every protocol in the paper aggregates hash values "up a spanning tree"
    whose labels (parent pointer, distance from root, root identity) the
    prover supplies and the nodes verify in the style of the proof-labeling
    scheme of Korman–Kutten–Peleg. The honest prover computes the labels with
    this module. *)

type t = {
  root : int;
  parent : int array;  (** [parent.(root) = root]. *)
  dist : int array;  (** BFS distance from the root. *)
}

val bfs : Graph.t -> int -> t
(** [bfs g root] computes a BFS tree. @raise Invalid_argument if [g] is not
    connected or [root] is out of range. *)

val children : t -> int -> int list
(** Children of a vertex in the tree, ascending. O(n) per query — use
    {!children_index} when visiting many vertices. *)

val children_index : t -> int array array
(** [children_index t] buckets every non-root vertex under its parent in
    one O(n) pass; entry [v] lists [v]'s children ascending. The scale path
    (honest aggregation at n = 10⁶) uses this instead of n calls to
    {!children}. Out-of-range parent labels are skipped, so the index is
    total even on adversarial advice. *)

val leaves_first : t -> int array
(** Every vertex once, by decreasing distance label (ascending within one
    distance): an O(n) counting sort, so each vertex comes after all of
    its BFS descendants. Subtree sums accumulate in this order.
    @raise Invalid_argument if a distance label is outside [\[0, n)]. *)

val subtree : t -> int -> int list
(** Vertices of the subtree rooted at [v] (including [v]), ascending.
    Iterative — safe at million-vertex depths. *)

val is_valid : Graph.t -> t -> bool
(** Global check that the labels describe a BFS-consistent spanning tree of
    [g]: every non-root's parent is a neighbor at distance one less, the
    root has distance 0, and all vertices reach the root. This is the
    ground-truth oracle against which the distributed verification of the
    protocols is tested. *)
