(** Per-node communication ledger.

    Records, for every network node, the bits it sent to the prover
    (challenges) and the bits it received from the prover (responses). The
    paper's protocol length is the maximum over nodes of the per-node total;
    lower bounds do not charge challenge bits, so the two directions are kept
    separate.

    A round that charges every node the same bits is one O(1) uniform
    charge ({!charge_all_to_prover}, {!charge_all_from_prover}); the
    per-node arrays hold only the charges that differ by node, and every
    reader adds the two. *)

type t

val create : int -> t
(** [create n] is a fresh ledger for an [n]-node network. *)

val n : t -> int

val charge_to_prover : t -> int -> int -> unit
(** [charge_to_prover c v bits] records [bits] sent by node [v].
    Raises [Invalid_argument] if [bits < 0]. *)

val charge_from_prover : t -> int -> int -> unit
(** [charge_from_prover c v bits] records [bits] received by node [v].
    Raises [Invalid_argument] if [bits < 0]. *)

val charge_all_to_prover : t -> int -> unit
(** Charge the same number of sent bits to every node, in O(1).
    Raises [Invalid_argument] if [bits < 0]. *)

val charge_all_from_prover : t -> int -> unit
(** Charge the same number of received bits to every node, in O(1).
    Raises [Invalid_argument] if [bits < 0]. *)

val to_prover : t -> int -> int
val from_prover : t -> int -> int

val node_total : t -> int -> int

val max_per_node : t -> int
(** The paper's length measure: maximum over nodes of the per-node total. *)

val max_from_prover : t -> int
(** Maximum over nodes of response bits only (the measure the lower bound
    charges). *)

val total : t -> int
(** Total communication over the whole network. *)

val pp : Format.formatter -> t -> unit
