(** Registry of named cheating-prover strategies, one per protocol, plus the
    fixed completeness/soundness cases the degradation sweeps run.

    Examples, the demo CLI, and the tests used to each keep a private list
    of adversaries; this module is the single place a strategy gets a name,
    so "which adversaries exist for protocol X" has one answer everywhere.
    Each protocol entry is an alias for a seed-0 point of the E17 grid
    ({!Strategy.registry}), served as a prover named ["adversary:<name>"].
    Each strategy embodies one way a prover can cheat:

    - Protocol 1 ([sym_dmam]): commit to a wrong permutation (random or
      identity), forge the root's sums, or split a broadcast;
    - Protocol 2 ([sym_dam]): search for a hash collision, or bet on a
      random permutation;
    - DSym ([dsym]): play consistently on a NO instance (the optimal
      adversary), or aggregate under the wrong permutation;
    - GNI ([gni]): forge aggregates after a miss, or never admit a miss
      (biased-hash);
    - the PLS baseline: an off-by-one distance forgery, caught
      deterministically by the tree check. *)

val sym_dmam : (string * Sym_dmam.prover) list
val sym_dam : (string * Sym_dam.prover) list
val dsym : (string * Dsym.prover) list
val gni : (string * Gni.prover) list

val lookup : (string * 'p) list -> string -> ('p, string) result
(** [lookup registry name] finds a strategy by its registry name; the error
    message names every known strategy, ready to show a user. *)

val names : (string * 'p) list -> string list

val pls_off_by_one : Ids_graph.Graph.t -> int -> Pls.Tree.advice
(** Honest spanning-tree advice for the given root with every distance
    incremented by one — locally plausible, globally inconsistent. *)

val run_pls_off_by_one : Ids_graph.Graph.t -> int -> Outcome.t
(** Verify the off-by-one forgery distributively; rejected with probability
    1 (the root sees distance 1 for itself, and every accepted parent edge
    would need the true BFS distances). *)

(** {1 Sweep cases} *)

type kind = Completeness | Soundness

type case = {
  protocol : string;
  strategy : string;
  kind : kind;
  n : int;  (** Network size of the fixed instance. *)
  run : fault:Ids_network.Fault.spec -> int -> Outcome.t;
      (** One seeded trial under the given fault spec ({!Ids_network.Fault.none}
          for the clean baseline). *)
}

val kind_to_string : kind -> string

val cases : unit -> case list
(** The fixed instances the fault sweeps measure: completeness cases accept
    with probability 1 at fault zero, soundness cases reject with at least
    the analytically bounded probability — at every fault rate (soundness
    degrades monotonically in the verifier's favor: faults only add reasons
    to reject). Instances are derived from hard-coded seeds, so the list is
    identical in every process. *)
