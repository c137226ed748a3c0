(** Raw wide-limb kernels over 62-bit-limb int arrays (used by {!Nat},
    {!Montgomery} and {!Modarith}; [mulmod62] also backs
    [Ids_hash.Field.int62_field]). See ids_kernel.c for the carry-headroom
    argument. All destinations must be caller-allocated and distinct from
    every operand.

    The array kernels are the C stubs behind wrappers that check every size
    the stub reads or writes before calling it: a violation raises
    [Invalid_argument] instead of running past ids_kernel.c's fixed stack
    buffers. Callers branch on {!use_c} and run their own pure-OCaml
    fallback otherwise. [mulmod62] carries its fallback here. *)

val nat_mul : int array -> int array -> int array -> unit
(** [nat_mul a b dst] writes the [la + lb]-limb product into [dst].
    @raise Invalid_argument unless [la, lb >= 1], [la + lb <= mul_cap] and
    [length dst >= la + lb]. *)

val nat_sqr : int array -> int array -> unit
(** [nat_sqr a dst] writes the [2 * la]-limb square into [dst].
    @raise Invalid_argument unless [la >= 1], [2 * la <= mul_cap] and
    [length dst >= 2 * la]. *)

val mont_mul : int array -> int -> int array -> int array -> int array -> unit
(** [mont_mul m n0 x y dst]: [dst] (k limbs) := [x*y*R^-1 mod m] where
    [k = length m], [R = 2^(62k)], [n0 = -m^-1 mod 2^62], and [x], [y] are
    k-limb values below [m].
    @raise Invalid_argument unless [1 <= k <= mont_cap] and [x], [y] and
    [dst] have at least [k] limbs. *)

val mont_sqr : int array -> int -> int array -> int array -> unit
(** [mont_sqr m n0 x dst]: [dst] := [x^2*R^-1 mod m]. Sizes as
    {!mont_mul}. *)

val mont_redc : int array -> int -> int array -> int array -> unit
(** [mont_redc m n0 v dst]: [dst] := [v*R^-1 mod m] for [v] of at most
    [2k] limbs (Montgomery entry/exit).
    @raise Invalid_argument unless [1 <= k <= mont_cap], [length v <= 2k]
    and [dst] has at least [k] limbs. *)

val mulmod62 : int -> int -> int -> int
(** [mulmod62 a b p] = [a * b mod p] for [0 <= a, b < p < 2^62]: the C
    kernel's 128-bit product, or under [IDS_BIGNUM_KERNEL=ocaml] a native
    float-estimated reduction over [b]'s 31-bit halves. Unchecked: it is
    the int62 field's hot path. [p] is validated where it is fixed, once:
    [Ids_hash.Field.int62_field] rejects [p < 2] (every native int is below
    [2^62]), and [Modarith]'s contexts take the one-limb path only for a
    modulus [>= 2] that fits one limb; operands are canonical residues. *)

val mul_cap : int
(** Operand-size ceiling ([la + lb]) for [nat_mul]/[nat_sqr]; fixed by the
    C stack buffers. *)

val mont_cap : int
(** Largest Montgomery modulus, in limbs, for the [mont_*] kernels; fixed
    by the C stack buffers. *)

val use_c : bool
(** False iff [IDS_BIGNUM_KERNEL=ocaml]: route the pure-OCaml fallback
    kernels instead of the C stubs (chosen once at startup). *)
