(** First-class prime fields.

    The hash family of Theorem 3.2 is instantiated at runtime with a prime
    that depends on the network size: [p] in [\[10 n^3, 100 n^3\]] for
    Protocol 1 (fits a native int) and [p] in [\[10 n^(n+2), 100 n^(n+2)\]]
    for Protocol 2 (needs {!Ids_bignum.Nat}). A field is therefore a record
    of operations rather than a functor argument, so protocols can be
    polymorphic in the carrier. *)

type 'a t = {
  bits : int;  (** Bits to transmit one field element. *)
  size : 'a;  (** The modulus [p], also the size of the hash family. *)
  zero : 'a;
  one : 'a;
  add : 'a -> 'a -> 'a;
  sub : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
  of_int : int -> 'a;
  pow_int : 'a -> int -> 'a;  (** [pow_int a e] with native exponent [e >= 0]. *)
  random : Ids_bignum.Rng.t -> 'a;  (** Uniform in [\[0, p)]. *)
  to_string : 'a -> string;
}

val int_field : int -> int t
(** [int_field p] for a native prime [p]. Requires [2 <= p < 2^31] so that
    products stay inside a 63-bit integer. *)

val int62_field : int -> int t
(** [int62_field p] for any native prime [p >= 2] (every non-negative int is
    below 2^62): same carrier as {!int_field}, but products run through the
    widening kernel {!Ids_bignum.Kernel.mulmod62} so the modulus is not
    capped at 2^31. Backs the §4 scale path once the true
    [\[4 m^1.5, 8 m^1.5\]] prime outgrows the native-product range. *)

val nat_field : Ids_bignum.Nat.t -> Ids_bignum.Nat.t t
(** [nat_field p] for an arbitrary-precision prime. Every operation goes
    through {!Ids_bignum.Modarith.ctx}, which picks the path from the
    modulus: native ints for a one-limb [p] ([p < 2^62], e.g. Protocol 2's
    prime up to [n = 12]; operands reduced first), Montgomery/Barrett
    otherwise. [random] is {!Ids_bignum.Nat.random_below}, native for a
    one-limb [p]. Either way every result is the canonical
    {!Ids_bignum.Nat.t} of the same element as the naive
    {!Ids_bignum.Modarith} functions. *)
