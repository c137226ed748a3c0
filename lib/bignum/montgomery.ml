(* Montgomery arithmetic over Nat's 62-bit limbs. The hot kernels (product,
   square, REDC) run in C with unsigned __int128 partials by default
   (ids_kernel.c via Kernel); `IDS_BIGNUM_KERNEL=ocaml` selects the pure
   fallback below, which splits each limb product into hi:lo native halves
   and accumulates columns in a three-word (62+62+carry) window — the
   radix-2^62 translation of the old Comba pass, kept as the portable
   second implementation the C kernels are tested against.

   At w = 62 a limb product needs 124 bits, so unlike the 26-bit kernels no
   native accumulator can defer carries across a column; the C side uses
   operand scanning in __int128 (sum < 2^125 per step), and the OCaml side
   carries the three-word window once per product. *)

let base_bits = Nat.base_bits
let mask = max_int (* = 2^62 - 1 *)

module Obs = Ids_obs.Obs

(* Hot-path accounting: one counter bump per exponentiation, never per limb
   or per column. The REDC count is derived arithmetically from the window
   walk, so the disabled path costs a single flag test. *)
let c_pow = Obs.Counter.make "mont.pow"
let c_redc = Obs.Counter.make "mont.redc"
let h_pow_bits = Obs.Histo.make "mont.pow_bits"

type t = {
  modulus : Nat.t;
  m : int array; (* k limbs, little-endian *)
  k : int;
  n0 : int; (* -m^(-1) mod 2^62 *)
  r2 : int array; (* R^2 mod m, R = 2^(62k) *)
  one_m : int array; (* R mod m: 1 in Montgomery form *)
}

let modulus t = t.modulus

(* hi:lo split of a full 62x62-bit product: x = xh*2^31 + xl with 31-bit
   halves, so each partial product fits a native int. Returns the product as
   (high 62 bits, low 62 bits). *)
let half_bits = 31
let half_mask = (1 lsl half_bits) - 1

let mul_wide x y =
  let xl = x land half_mask and xh = x lsr half_bits in
  let yl = y land half_mask and yh = y lsr half_bits in
  let ll = xl * yl in
  let mid = (xl * yh) + (yl * xh) in (* < 2^63: two products < 2^62 *)
  let hh = xh * yh in
  let lo = ll + ((mid land half_mask) lsl half_bits) in (* < 2^63 *)
  let hi = hh + (mid lsr half_bits) + (lo lsr base_bits) in
  (hi, lo land mask)

(* Low 62 bits of x * y: the three partial products that reach them. *)
let mul_low x y =
  let xl = x land half_mask and xh = x lsr half_bits in
  let yl = y land half_mask and yh = y lsr half_bits in
  ((xl * yl) + ((((xl * yh) + (yl * xh)) land half_mask) lsl half_bits)) land mask

(* Hensel lifting: for odd m0, x = m0 is an inverse of m0 modulo 8, and each
   Newton step x <- x(2 - m0 x) doubles the number of correct low bits, so
   five steps reach >= 62 (3 -> 6 -> 12 -> 24 -> 48 -> 96). All products are
   taken modulo 2^62 through {!mul_low}. *)
let neg_inv_limb m0 =
  let x = ref m0 in
  for _ = 1 to 5 do
    let d = (2 - mul_low m0 !x) land mask in
    x := mul_low !x d
  done;
  assert (mul_low m0 !x = 1);
  (mask - !x + 1) land mask (* = 2^62 - x = -x mod 2^62 *)

(* Pad a normalized limb array to exactly k limbs. *)
let pad k limbs =
  let r = Array.make k 0 in
  Array.blit limbs 0 r 0 (Array.length limbs);
  r

(* --- pure-OCaml fallback kernels -----------------------------------------

   Product scanning with a three-word column window (w0 = current 62-bit
   column, w1 = next, w2 = overflow of next): each limb product splits into
   hi:lo and is folded with one carry step per word, so nothing ever
   exceeds a native int. *)

let mul_limbs k x y =
  let r = Array.make (2 * k) 0 in
  let w0 = ref 0 and w1 = ref 0 and w2 = ref 0 in
  for c = 0 to (2 * k) - 2 do
    let lo = if c >= k then c - k + 1 else 0 in
    let hi = if c < k then c else k - 1 in
    for i = lo to hi do
      let ph, pl = mul_wide (Array.unsafe_get x i) (Array.unsafe_get y (c - i)) in
      let s0 = !w0 + pl in
      w0 := s0 land mask;
      let s1 = !w1 + ph + (s0 lsr base_bits) in
      w1 := s1 land mask;
      w2 := !w2 + (s1 lsr base_bits)
    done;
    Array.unsafe_set r c !w0;
    w0 := !w1;
    w1 := !w2;
    w2 := 0
  done;
  r.((2 * k) - 1) <- !w0;
  r

let sqr_limbs k x =
  let r = Array.make (2 * k) 0 in
  let w0 = ref 0 and w1 = ref 0 and w2 = ref 0 in
  let fold ph pl =
    let s0 = !w0 + pl in
    w0 := s0 land mask;
    let s1 = !w1 + ph + (s0 lsr base_bits) in
    w1 := s1 land mask;
    w2 := !w2 + (s1 lsr base_bits)
  in
  for c = 0 to (2 * k) - 2 do
    let lo = if c >= k then c - k + 1 else 0 in
    (* Floor division ([asr], not [/]) so c = 0 gives an empty pair range. *)
    let hi = (c - 1) asr 1 in
    for i = lo to hi do
      let ph, pl = mul_wide (Array.unsafe_get x i) (Array.unsafe_get x (c - i)) in
      (* Double the cross term word-by-word; each doubled word is < 2^63. *)
      let dl = pl lsl 1 in
      fold (((ph lsl 1) land mask) lor (pl lsr (base_bits - 1))) (dl land mask);
      w2 := !w2 + (ph lsr (base_bits - 1))
    done;
    if c land 1 = 0 then begin
      let xi = Array.unsafe_get x (c / 2) in
      let ph, pl = mul_wide xi xi in
      fold ph pl
    end;
    Array.unsafe_set r c !w0;
    w0 := !w1;
    w1 := !w2;
    w2 := 0
  done;
  r.((2 * k) - 1) <- !w0;
  r

(* Conditional subtract shared by both OCaml reduction exits: r (k+1 limbs,
   value < 2m) minus m when r >= m. *)
let cond_sub_m k m r =
  let ge_m =
    r.(k) <> 0
    ||
    let rec cmp i = if i < 0 then true else if r.(i) <> m.(i) then r.(i) > m.(i) else cmp (i - 1) in
    cmp (k - 1)
  in
  if ge_m then begin
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let d = r.(i) - m.(i) - !borrow in
      r.(i) <- d land mask;
      borrow := if d < 0 then 1 else 0
    done
  end;
  Array.sub r 0 k

(* Column-wise Montgomery reduction, OCaml fallback: v (up to 2k limbs,
   value < m * 2^(62k)) to v * R^(-1) mod m, fully reduced into k limbs.
   Column i determines mu_i = v_i * n0 mod 2^62 such that adding
   mu_i * m * 2^(62 i) zeroes the column; the high columns then read off
   the result. Does not mutate v. *)
let redc_ocaml t v =
  let k = t.k and m = t.m and n0 = t.n0 in
  let lv = Array.length v in
  let mu = Array.make k 0 in
  let r = Array.make (k + 1) 0 in
  let w0 = ref 0 and w1 = ref 0 and w2 = ref 0 in
  let fold ph pl =
    let s0 = !w0 + pl in
    w0 := s0 land mask;
    let s1 = !w1 + ph + (s0 lsr base_bits) in
    w1 := s1 land mask;
    w2 := !w2 + (s1 lsr base_bits)
  in
  let add_word x =
    let s0 = !w0 + x in
    w0 := s0 land mask;
    let s1 = !w1 + (s0 lsr base_bits) in
    w1 := s1 land mask;
    w2 := !w2 + (s1 lsr base_bits)
  in
  for i = 0 to k - 1 do
    if i < lv then add_word (Array.unsafe_get v i);
    for j = 0 to i - 1 do
      let ph, pl = mul_wide (Array.unsafe_get mu j) (Array.unsafe_get m (i - j)) in
      fold ph pl
    done;
    let mi = mul_low !w0 n0 in
    Array.unsafe_set mu i mi;
    let ph, pl = mul_wide mi (Array.unsafe_get m 0) in
    fold ph pl;
    (* The column is now zero mod 2^62 by construction: shift the window. *)
    assert (!w0 = 0);
    w0 := !w1;
    w1 := !w2;
    w2 := 0
  done;
  for i = k to (2 * k) - 1 do
    if i < lv then add_word (Array.unsafe_get v i);
    for j = i - k + 1 to k - 1 do
      let ph, pl = mul_wide (Array.unsafe_get mu j) (Array.unsafe_get m (i - j)) in
      fold ph pl
    done;
    Array.unsafe_set r (i - k) !w0;
    w0 := !w1;
    w1 := !w2;
    w2 := 0
  done;
  r.(k) <- !w0;
  cond_sub_m t.k t.m r

(* --- kernel dispatch ------------------------------------------------------ *)

let redc t v =
  if Kernel.use_c then begin
    let dst = Array.make t.k 0 in
    Kernel.mont_redc t.m t.n0 v dst;
    dst
  end
  else redc_ocaml t v

let mont_mul t x y =
  if Kernel.use_c then begin
    let dst = Array.make t.k 0 in
    Kernel.mont_mul t.m t.n0 x y dst;
    dst
  end
  else redc_ocaml t (mul_limbs t.k x y)

let mont_sqr t x =
  if Kernel.use_c then begin
    let dst = Array.make t.k 0 in
    Kernel.mont_sqr t.m t.n0 x dst;
    dst
  end
  else redc_ocaml t (sqr_limbs t.k x)

let make modulus =
  let limbs = Nat.to_limbs modulus in
  let k = Array.length limbs in
  if k = 0 || limbs.(0) land 1 = 0 then invalid_arg "Montgomery.make: modulus must be odd";
  if Nat.compare modulus Nat.two <= 0 then invalid_arg "Montgomery.make: modulus must be >= 3";
  if k > Kernel.mont_cap then invalid_arg "Montgomery.make: modulus too large for the fixed kernel buffers";
  let r2 = pad k (Nat.to_limbs (Nat.rem (Nat.shift_left Nat.one (2 * base_bits * k)) modulus)) in
  let t = { modulus; m = limbs; k; n0 = neg_inv_limb limbs.(0); r2; one_m = [||] } in
  (* 1 in Montgomery form is REDC(R^2) = R mod m. *)
  { t with one_m = redc t r2 }

let reduce t a = if Nat.compare a t.modulus >= 0 then Nat.rem a t.modulus else a
let to_mont t a = mont_mul t (pad t.k (Nat.to_limbs (reduce t a))) t.r2

let mul t a b =
  (* REDC(aR * b) = a*b mod m: only one operand needs the conversion pass. *)
  Nat.of_limbs (mont_mul t (to_mont t a) (pad t.k (Nat.to_limbs (reduce t b))))

(* 4-bit fixed windows, most significant first, reading bits straight out of
   the exponent's limb array — no division-by-two loop. *)
let window_bits = 4

let pow t a e =
  if Nat.is_zero e then Nat.one (* modulus >= 3, so 1 mod m = 1 *)
  else begin
    let am = to_mont t a in
    let table = Array.make (1 lsl window_bits) t.one_m in
    table.(1) <- am;
    for i = 2 to (1 lsl window_bits) - 1 do
      table.(i) <- mont_mul t table.(i - 1) am
    done;
    let limbs = Nat.to_limbs e in
    let nbits = Nat.bit_length e in
    let bit j = limbs.(j / base_bits) lsr (j mod base_bits) land 1 in
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
    let nmul = ref 0 in
    for w = nw - 2 downto 0 do
      for _ = 1 to window_bits do
        acc := mont_sqr t !acc
      done;
      let d = window w in
      if d <> 0 then begin
        incr nmul;
        acc := mont_mul t !acc table.(d)
      end
    done;
    if Obs.enabled () then begin
      Obs.Counter.add c_pow 1;
      (* to_mont + table fill + window squares + window multiplies + the
         final domain exit below — each is exactly one REDC. *)
      Obs.Counter.add c_redc
        (1 + ((1 lsl window_bits) - 2) + (window_bits * (nw - 1)) + !nmul + 1);
      Obs.Histo.observe h_pow_bits nbits
    end;
    (* Leave the Montgomery domain: REDC of the bare k-limb value. *)
    Nat.of_limbs (redc t !acc)
  end

let pow_int t a e =
  if e < 0 then invalid_arg "Montgomery.pow_int: negative exponent";
  pow t a (Nat.of_int e)
