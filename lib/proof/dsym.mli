(** The [dAM\[O(log n)\]] protocol for Dumbbell Symmetry (Section 3.3,
    Theorems 1.2 / 3.6) — one half of the exponential separation between
    distributed NP and distributed AM.

    DSym (Definition 5) fixes the candidate automorphism [sigma] in advance
    (the mirror map of a dumbbell with a connecting path), so the Merlin
    commitment round of Protocol 1 can be dropped: what remains is a genuine
    one-round Arthur–Merlin protocol whose every message is [O(log n)] bits,
    while any locally checkable proof for DSym needs [Omega(n^2)] bits
    (Göös–Suomela, reproduced here by the {!Pls.Lcp_sym} baseline).

    The three membership conditions split as:
    + [sigma] is an automorphism — checked with the Protocol 1 hash
      machinery (both hash rows are computable locally because [sigma] is a
      fixed public formula);
    + the connecting path is present — checked locally by the path nodes;
    + no stray edges — checked locally by every node.

    Instances are parameterized by [(n, r)]: side size and half path length;
    all nodes know these (they are part of the language definition). *)

type instance = { n : int; r : int; graph : Ids_graph.Graph.t }

val make_instance : n:int -> r:int -> Ids_graph.Graph.t -> instance
(** @raise Invalid_argument if the vertex count is not [2n + 2r + 1]. *)

type params = { p : int; field : int Ids_hash.Field.t }

val params_for : seed:int -> instance -> params

type response = {
  index : int array;  (** broadcast *)
  root : int array;  (** broadcast *)
  parent : int array;  (** unicast *)
  dist : int array;  (** unicast *)
  a : int array;  (** unicast *)
  b : int array;  (** unicast *)
}

type prover = { name : string; respond : params -> instance -> int array -> response }

val honest : prover

(** {1 Strategy building blocks}

    Exposed so the E17 strategy space ({!Strategy}), whose seed-0 points
    are the registry adversaries, can compose cheats from them. *)

val respond_with :
  root:int -> sigma:Ids_graph.Perm.t -> params -> instance -> int array -> response
(** Honest-shaped play for an arbitrary tree root and aggregation
    permutation: echo [root]'s challenge and send the true subtree sums of
    both matrices, aggregating the b-matrix under [sigma]. The honest prover
    is [respond_with ~root:0 ~sigma:(Precomp.dsym_sigma ...)]. *)

val run : ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> instance -> prover -> Outcome.t
(** One execution. [fault] injects faults into every channel round (see
    {!Ids_network.Fault}); omitted or {!Ids_network.Fault.none} is the exact
    un-faulted path. *)

