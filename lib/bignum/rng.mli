(** Deterministic splittable pseudo-random generator (splitmix64).

    Every source of randomness in this repository flows through this module,
    so that protocols, tests and experiments are reproducible given a seed.
    The generator is [splitmix64] (Steele, Lea & Flood 2014): a 64-bit state
    advanced by a Weyl sequence and finalized with an avalanche function. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    (statistically) independent of the remainder of [t]'s stream. *)

(** {2 Splitting by position}

    Splitmix's split is addressable by index. From a state [s0], the
    [(i+1)]-th of [i + 1] successive {!split}s returns the generator of
    state [mix (mix (s0 + (i+1)·gamma))] and leaves [t] at
    [s0 + (i+1)·gamma]. So the [n] generators a loop of [n] splits hands
    out can be derived in any order, or only the ones that are read:
    [split_at t i] for each [i < n], then [advance t n]. A node's coins
    then depend on the seed, the round and the node alone, as in the
    paper's model, not on the order nodes draw in. *)

val split_at : t -> int -> t
(** [split_at t i] is the generator the [(i+1)]-th of successive
    {!split}s of [t] would return, streaming identically to it. It does
    not advance [t]. *)

val advance : t -> int -> unit
(** [advance t count] moves [t] to the state [count] successive {!split}s
    (or {!next_int64}s) would leave it in, in O(1). *)

val key : int list -> int
(** [key parts] derives a seed from a composite key by iterated splitmix64
    mixing: each component is folded through the avalanche function, so seeds
    for nearby tuples (e.g. [(trial, round, node)] and [(trial, round,
    node+1)]) are statistically independent. Pure: no generator state is
    consumed, which is what lets fault decisions be keyed by position rather
    than drawn from a shared stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int -> int
(** [bits t k] is a uniformly random [k]-bit non-negative integer,
    [0 <= k <= 62]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0].
    Uses rejection sampling, so the distribution is exactly uniform. *)

val bool : t -> bool
(** Uniform coin flip. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
