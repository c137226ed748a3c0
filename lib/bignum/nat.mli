(** Arbitrary-precision natural numbers.

    The paper's dAM protocol for Symmetry (Protocol 2) hashes into a prime
    field with [p] in [\[10 n^(n+2), 100 n^(n+2)\]], and the Goldwasser–Sipser
    GNI protocol hashes into a range proportional to [n!]; both overflow
    native integers almost immediately. No bignum package is available in the
    build environment, so this module implements the required arithmetic from
    scratch: little-endian arrays of 62-bit limbs (the widest radix a 63-bit
    OCaml int can carry with headroom), C kernels with [unsigned __int128]
    partials for the quadratic ranges, Karatsuba and Toom-3 tiers above, and
    Knuth Algorithm D division over a 31-bit digit view — comfortable from the
    few-hundred-bit protocol numbers up to the multi-hundred-kilobit range the
    benches exercise.

    All values are immutable. Results are always normalized (no leading zero
    limbs), so structural equality coincides with numeric equality. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int k] converts a non-negative native integer.
    @raise Invalid_argument if [k < 0]. *)

val to_int : t -> int
(** [to_int a] converts back to a native integer.
    @raise Failure if the value exceeds [max_int]. *)

val to_int_opt : t -> int option
(** Like {!to_int} but returns [None] on overflow. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** [sub a b] is [a - b]. @raise Invalid_argument if [a < b]. *)

val mul : t -> t -> t
(** Tiered: C operand-scanning schoolbook below 80 limbs (~5000 bits),
    Karatsuba in the middle, Toom-3 once both operands reach 512 limbs
    (~32000 bits); physically identical arguments route to {!sqr}. *)

val mul_schoolbook : t -> t -> t
(** The plain O(la * lb) product. Reference oracle for the Karatsuba and
    squaring kernels (tests and benches); same results as {!mul}. *)

val sqr : t -> t
(** [sqr a = mul a a], via the symmetric-term trick (half the limb products
    of the schoolbook rectangle) up to 512 limbs, Toom-3 above. *)

val mul_int : t -> int -> t
(** Direct scalar sweep over the 31-bit digit view for [k < 2^31] (full
    multiply above). @raise Invalid_argument if [k < 0]. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero if [b = 0]. *)

val div : t -> t -> t
val rem : t -> t -> t

val rem_int : t -> int -> int
(** [rem_int a d] is [a mod d] in one sweep of sub-limb chunks, no quotient
    allocation. @raise Invalid_argument unless [0 < d < 2^36] (the bound
    keeps the running remainder's window inside a native int). *)

val pow : t -> int -> t
(** [pow a k] is [a] raised to the non-negative native exponent [k]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val base_bits : int
(** Bits per limb (62). Fixed by the representation; exposed so kernels built
    on {!to_limbs} (e.g. Montgomery/Barrett reduction) agree on the radix. *)

val to_limbs : t -> int array
(** Little-endian limbs in base [2^base_bits], normalized (no leading zero
    limbs; [zero] gives [[||]]). The returned array is a fresh copy. *)

val of_limbs : int array -> t
(** Inverse of {!to_limbs}; accepts non-normalized input and copies it.
    @raise Invalid_argument if any limb is outside [\[0, 2^base_bits)] —
    the message names the offending index and the current radix. *)

val of_string : string -> t
(** Parse a decimal string. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val random_below : Rng.t -> t -> t
(** [random_below rng n] is uniform in [\[0, n)]. Requires [n > 0].
    Consumes the generator in fixed 26-bit draws (plus one short top draw),
    low bits first, independent of the storage radix — pinned
    (seed, interval) -> value tables survive representation changes. A
    one-limb [n] draws through {!random_below_int}. *)

val random_below_int : Rng.t -> int -> int
(** [random_below_int rng bound] is [to_int (random_below rng (of_int bound))]
    for a native [bound > 0]: the same 26-bit chunk stream (the generator
    ends at the same position), assembled in one int with no limb array. *)

val random_in : Rng.t -> t -> t -> t
(** [random_in rng lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)

val pp : Format.formatter -> t -> unit
