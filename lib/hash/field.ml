module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng

type 'a t = {
  bits : int;
  size : 'a;
  zero : 'a;
  one : 'a;
  add : 'a -> 'a -> 'a;
  sub : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
  of_int : int -> 'a;
  pow_int : 'a -> int -> 'a;
  random : Rng.t -> 'a;
  to_string : 'a -> string;
}

let int_field p =
  if p < 2 || p >= 1 lsl 31 then invalid_arg "Field.int_field: modulus out of native-safe range";
  let pow_int a e =
    let rec go acc base e =
      if e = 0 then acc
      else begin
        let acc = if e land 1 = 1 then acc * base mod p else acc in
        go acc (base * base mod p) (e lsr 1)
      end
    in
    if e < 0 then invalid_arg "pow_int: negative exponent" else go 1 (a mod p) e
  in
  let bits = max 1 (Nat.bit_length (Nat.of_int (p - 1))) in
  let random rng =
    (* Uniform in [0, p) via rejection on the covering power of two. *)
    let k = bits in
    let rec draw () =
      let v = Rng.bits rng k in
      if v < p then v else draw ()
    in
    draw ()
  in
  { bits;
    size = p;
    zero = 0;
    one = 1;
    add = (fun a b -> (a + b) mod p);
    sub = (fun a b -> ((a - b) mod p + p) mod p);
    mul = (fun a b -> a * b mod p);
    equal = Int.equal;
    of_int = (fun k -> (k mod p + p) mod p);
    pow_int;
    random;
    to_string = string_of_int
  }

let int62_field p =
  if p < 2 then invalid_arg "Field.int62_field: modulus too small";
  (* Any native int below 2^62 qualifies ([max_int] = 2^62 - 1, so every
     non-negative int does): products run through Kernel.mulmod62 (the C
     widening kernel, or its native fallback), and sums are rearranged so no intermediate leaves the
     63-bit native range ((a - p) + b is in (-2^62, 2^62)). *)
  let mul a b = Ids_bignum.Kernel.mulmod62 a b p in
  (* Canonical residue without leaving the native range: for p > 2^61 the
     textbook ((k mod p) + p) mod p overflows max_int on every k mod p > 56. *)
  let reduce k =
    let r = k mod p in
    if r < 0 then r + p else r
  in
  let pow_int a e =
    let rec go acc base e =
      if e = 0 then acc
      else begin
        let acc = if e land 1 = 1 then mul acc base else acc in
        go acc (mul base base) (e lsr 1)
      end
    in
    if e < 0 then invalid_arg "pow_int: negative exponent" else go 1 (reduce a) e
  in
  let bits = max 1 (Nat.bit_length (Nat.of_int (p - 1))) in
  let random rng =
    let rec draw () =
      let v = Rng.bits rng bits in
      if v < p then v else draw ()
    in
    draw ()
  in
  { bits;
    size = p;
    zero = 0;
    one = 1;
    add =
      (fun a b ->
        let s = a - p + b in
        if s < 0 then s + p else s);
    sub = (fun a b -> if a >= b then a - b else a - b + p);
    mul;
    equal = Int.equal;
    of_int = reduce;
    pow_int;
    random;
    to_string = string_of_int
  }

let nat_field p =
  if Nat.compare p Nat.two < 0 then invalid_arg "Field.nat_field: modulus too small";
  (* One precomputed context backs every field operation: native ints for a
     one-limb p, Montgomery for odd p, Barrett otherwise. Values are
     bit-identical to the naive Modarith functions, just without a long
     division per op. *)
  let c = Ids_bignum.Modarith.ctx p in
  { bits = max 1 (Nat.bit_length (Nat.sub p Nat.one));
    size = p;
    zero = Nat.zero;
    one = Nat.one;
    add = Ids_bignum.Modarith.ctx_add c;
    sub = Ids_bignum.Modarith.ctx_sub c;
    mul = Ids_bignum.Modarith.ctx_mul c;
    equal = Nat.equal;
    of_int = (fun k -> Nat.rem (Nat.of_int k) p);
    pow_int = Ids_bignum.Modarith.ctx_pow_int c;
    random = (fun rng -> Nat.random_below rng p);
    to_string = Nat.to_string
  }
