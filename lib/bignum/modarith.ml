let add a b m =
  let s = Nat.add a b in
  if Nat.compare s m >= 0 then Nat.sub s m else s

let sub a b m = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b

let mul a b m = Nat.rem (Nat.mul a b) m

let pow a e m =
  if Nat.is_zero m then raise Division_by_zero;
  let rec go acc base e =
    if Nat.is_zero e then acc
    else begin
      let q, r = Nat.divmod e Nat.two in
      let acc = if Nat.is_one r then mul acc base m else acc in
      go acc (mul base base m) q
    end
  in
  go Nat.one (Nat.rem a m) e

let pow_int a e m =
  if e < 0 then invalid_arg "Modarith.pow_int: negative exponent";
  let rec go acc base e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc base m else acc in
      go acc (mul base base m) (e lsr 1)
    end
  in
  go Nat.one (Nat.rem a m) e

let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b)

(* Extended Euclid, with Bezout coefficients tracked modulo [m] to stay in
   the naturals: invariant r_i = s_i * a (mod m). *)
let inv a m =
  if Nat.compare m Nat.two < 0 then invalid_arg "Modarith.inv: modulus must be >= 2";
  let a = Nat.rem a m in
  let rec go r0 s0 r1 s1 =
    if Nat.is_zero r1 then if Nat.is_one r0 then Some s0 else None
    else begin
      let q, r2 = Nat.divmod r0 r1 in
      let s2 = sub s0 (mul q s1 m) m in
      go r1 s1 r2 s2
    end
  in
  go m Nat.zero a Nat.one

let inv_int a m =
  if m < 2 then invalid_arg "Modarith.inv_int: modulus must be >= 2";
  Option.map Nat.to_int (inv (Nat.of_int ((a mod m + m) mod m)) (Nat.of_int m))

(* ---- Precomputed per-modulus contexts ---------------------------------- *)

(* Barrett reduction (HAC 14.42): for a k-limb modulus m, precompute
   mu = floor(b^2k / m) with b = 2^Nat.base_bits (2^62 since the wide-limb
   migration); then for x < b^2k the quotient guess
   q3 = floor(floor(x / b^(k-1)) * mu / b^(k+1)) satisfies q3 <= floor(x/m)
   <= q3 + 2, so x - q3*m is non-negative (Nat has no negatives) and at most
   two conditional subtracts complete the reduction. Works for any modulus
   parity, which is why it backs the even-modulus path. *)
type barrett = {
  bm : Nat.t;
  bk : int; (* limb count of bm *)
  mu : Nat.t; (* floor(2^(2 * base_bits * bk) / bm) *)
}

let barrett_make m =
  let bk = (Nat.bit_length m + Nat.base_bits - 1) / Nat.base_bits in
  { bm = m; bk; mu = Nat.div (Nat.shift_left Nat.one (2 * Nat.base_bits * bk)) m }

let barrett_reduce br x =
  let q1 = Nat.shift_right x (Nat.base_bits * (br.bk - 1)) in
  let q3 = Nat.shift_right (Nat.mul q1 br.mu) (Nat.base_bits * (br.bk + 1)) in
  let r = ref (Nat.sub x (Nat.mul q3 br.bm)) in
  while Nat.compare !r br.bm >= 0 do
    r := Nat.sub !r br.bm
  done;
  !r

type ctx = {
  modulus : Nat.t;
  native : int option; (* the modulus, when it fits one limb *)
  barrett : barrett;
  mont : Montgomery.t option; (* odd moduli >= 3 only *)
}

let ctx_modulus c = c.modulus

let make_ctx m =
  if Nat.compare m Nat.two < 0 then invalid_arg "Modarith.ctx: modulus must be >= 2";
  let mont =
    let limbs = Nat.to_limbs m in
    if limbs.(0) land 1 = 1 && Nat.compare m Nat.two > 0 then Some (Montgomery.make m) else None
  in
  { modulus = m; native = Nat.to_int_opt m; barrett = barrett_make m; mont }

(* One cache per domain: contexts are immutable once built, but the table
   itself must not be shared across the engine's worker domains. Bounded so a
   sweep over many moduli cannot grow it without limit. *)
let cache_limit = 64

let cache_key : (Nat.t, ctx) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let ctx m =
  let tbl = Domain.DLS.get cache_key in
  match Hashtbl.find_opt tbl m with
  | Some c -> c
  | None ->
    let c = make_ctx m in
    if Hashtbl.length tbl >= cache_limit then Hashtbl.reset tbl;
    Hashtbl.add tbl m c;
    c

let reduce c a = if Nat.compare a c.modulus >= 0 then Nat.rem a c.modulus else a

(* A one-limb modulus p (below 2^62) runs add, sub, mul and pow_int on
   native residues: each operand becomes an int below p (an unreduced or
   multi-limb one through Nat.rem first, as [reduce] does), the sum is
   formed without leaving the native range and the product by the C
   widening multiply. The canonical Nat.of_int of the result is the value
   the limb path returns, without a limb array per intermediate. *)
let residue c p a =
  match Nat.to_int_opt a with
  | Some v -> if v < p then v else v mod p
  | None -> Nat.to_int (Nat.rem a c.modulus)

let ctx_add c a b =
  match c.native with
  | Some p ->
    let s = residue c p a - p + residue c p b in
    Nat.of_int (if s < 0 then s + p else s)
  | None -> add (reduce c a) (reduce c b) c.modulus

let ctx_sub c a b =
  match c.native with
  | Some p ->
    let d = residue c p a - residue c p b in
    Nat.of_int (if d < 0 then d + p else d)
  | None -> sub (reduce c a) (reduce c b) c.modulus

let barrett_mul c a b = barrett_reduce c.barrett (Nat.mul a b)

(* One-shot products go through Barrett too since the wide-limb migration:
   the C multiply kernel makes the two extra k-limb products far cheaper
   than the Knuth division they replace (the 26-bit engine measured the
   opposite, 0.57-0.82x naive, because its multiplies cost as much as its
   divisions). Montgomery would still add domain conversions on top.
   Operands must be below the modulus for the q3 <= q <= q3 + 2 guarantee,
   hence the reduce pre-passes; physically equal arguments route to the
   squaring kernel inside [Nat.mul]. *)
let ctx_mul c a b =
  match c.native with
  | Some p -> Nat.of_int (Kernel.mulmod62 (residue c p a) (residue c p b) p)
  | None -> barrett_mul c (reduce c a) (reduce c b)

(* Even-modulus exponentiation: the same 4-bit window over exponent limbs as
   {!Montgomery.pow}, with Barrett-reduced products. *)
let window_bits = 4

let barrett_pow c a e =
  if Nat.is_zero e then Nat.one
  else begin
    let a = reduce c a in
    let table = Array.make (1 lsl window_bits) Nat.one in
    table.(1) <- a;
    for i = 2 to (1 lsl window_bits) - 1 do
      table.(i) <- barrett_mul c table.(i - 1) a
    done;
    let limbs = Nat.to_limbs e in
    let nbits = Nat.bit_length e in
    let bit j = limbs.(j / Nat.base_bits) lsr (j mod Nat.base_bits) land 1 in
    let window w =
      let lo = w * window_bits in
      let v = ref 0 in
      for j = min (lo + window_bits - 1) (nbits - 1) downto lo do
        v := (!v lsl 1) lor bit j
      done;
      !v
    in
    let nw = (nbits + window_bits - 1) / window_bits in
    let acc = ref table.(window (nw - 1)) in
    for w = nw - 2 downto 0 do
      for _ = 1 to window_bits do
        acc := barrett_mul c !acc !acc
      done;
      let d = window w in
      if d <> 0 then acc := barrett_mul c !acc table.(d)
    done;
    !acc
  end

let ctx_pow c a e =
  match c.mont with
  | Some mg -> Montgomery.pow mg a e
  | None -> barrett_pow c a e

let ctx_pow_int c a e =
  if e < 0 then invalid_arg "Modarith.ctx_pow_int: negative exponent";
  match c.native with
  | Some p ->
    let rec go acc b e =
      if e = 0 then acc
      else go (if e land 1 = 1 then Kernel.mulmod62 acc b p else acc) (Kernel.mulmod62 b b p) (e lsr 1)
    in
    Nat.of_int (go 1 (residue c p a) e)
  | None -> ctx_pow c a (Nat.of_int e)
