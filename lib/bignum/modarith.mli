(** Modular arithmetic over {!Nat.t} values.

    All operations take the modulus as their last argument and expect their
    operands already reduced (asserted in debug builds). The protocols use
    these as the field operations for hash evaluation when the prime exceeds
    the native-integer range. *)

val add : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [add a b m] is [(a + b) mod m]. *)

val sub : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [sub a b m] is [(a - b) mod m], always non-negative. *)

val mul : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [mul a b m] is [(a * b) mod m]. *)

val pow : Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [pow a e m] is [a^e mod m] by square-and-multiply. *)

val pow_int : Nat.t -> int -> Nat.t -> Nat.t
(** [pow_int a e m] is [a^e mod m] for a native exponent [e >= 0]. *)

val gcd : Nat.t -> Nat.t -> Nat.t
(** Greatest common divisor (Euclid); [gcd 0 0 = 0]. *)

val inv : Nat.t -> Nat.t -> Nat.t option
(** [inv a m] is the multiplicative inverse of [a] modulo [m] when
    [gcd a m = 1], via the extended Euclidean algorithm; [None] otherwise.
    Requires [m >= 2]. *)

val inv_int : int -> int -> int option
(** Native-integer variant of {!inv}. *)

(** {1 Precomputed contexts}

    The functions above pay a full long division per operation and one per
    exponent bit. A {!ctx} precomputes everything reusable for a fixed
    modulus — a Montgomery context (odd moduli) and a Barrett [mu] constant
    (any parity) — so the protocol hot paths do no division at all. A
    modulus that fits one limb ([m < 2^62]) runs {!ctx_add}, {!ctx_sub},
    {!ctx_mul} and {!ctx_pow_int} on native ints instead (operands reduced
    first, products through {!Kernel.mulmod62}); the modulus picks the path.
    Results are bit-identical to the naive functions, which remain the
    reference oracle for cross-check tests. *)

type ctx

val ctx : Nat.t -> ctx
(** [ctx m] returns the context for modulus [m >= 2], cached per domain so
    repeated lookups for the same modulus are free.
    @raise Invalid_argument if [m < 2]. *)

val ctx_modulus : ctx -> Nat.t

val ctx_add : ctx -> Nat.t -> Nat.t -> Nat.t
val ctx_sub : ctx -> Nat.t -> Nat.t -> Nat.t

val ctx_mul : ctx -> Nat.t -> Nat.t -> Nat.t
(** Barrett-reduced product; operands need not be pre-reduced. *)

val ctx_pow : ctx -> Nat.t -> Nat.t -> Nat.t
(** Windowed exponentiation: Montgomery (CIOS) for odd moduli, Barrett for
    even ones. Bit-identical to {!pow}. *)

val ctx_pow_int : ctx -> Nat.t -> int -> Nat.t
(** [ctx_pow_int c a e] for a native exponent [e >= 0]. *)
