(* Little-endian arrays of limbs in base 2^62 — the widest radix a 63-bit
   OCaml native int can hold ([max_int] is exactly 2^62 - 1, so a limb is any
   non-negative int below [2^62] and [mask = max_int]). A limb product no
   longer fits a native int, so the quadratic kernels run either in C with
   unsigned __int128 partials (Kernel, the default) or in pure OCaml over
   31-bit half-limb "digits" whose products (< 2^62) do fit; division
   (Algorithm D) always runs in digit space for the same reason. Carry and
   borrow chains at the limb level are still native: a sum x + y + carry is
   < 2^63 and its low/high split is [land mask] / [lsr 62] on the 63-bit
   two's-complement pattern, and a borrow d in (-2^62, 2^62) reduces with
   [d land mask].

   The draw radix of [random_below] is NOT the limb radix: random values are
   assembled from fixed 26-bit Rng chunks, low to high, exactly as the 26-bit
   representation drew them — every committed (seed -> prime, next-bits) pin
   depends on that stream shape, so it is frozen independently of storage. *)

let base_bits = 62
let mask = max_int (* = 2^62 - 1; "base" itself is not representable *)

type t = int array

let zero = [||]
let one = [| 1 |]
let two = [| 2 |]

let is_zero a = Array.length a = 0
let is_one a = Array.length a = 1 && a.(0) = 1

(* Strip leading (high-order) zero limbs so representations are canonical. *)
let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* Every non-negative native int is a single limb: max_int = mask. *)
let of_int k =
  if k < 0 then invalid_arg "Nat.of_int: negative";
  if k = 0 then zero else [| k |]

let to_int_opt a =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0) (* a limb is at most mask = max_int *)
  | _ -> None (* normalized, so a second limb means the value is >= 2^62 *)

let to_int a =
  match to_int_opt a with
  | Some k -> k
  | None -> failwith "Nat.to_int: overflow"

let equal a b = a = b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let x = if i < la then a.(i) else 0 in
    let y = if i < lb then b.(i) else 0 in
    let s = x + y + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  normalize r

let add_int a k = add a (of_int k)

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let y = if i < lb then b.(i) else 0 in
    let d = a.(i) - y - !borrow in
    r.(i) <- d land mask;
    borrow := if d < 0 then 1 else 0
  done;
  assert (!borrow = 0);
  normalize r

(* --- 31-bit digit views ---------------------------------------------------

   A limb splits exactly into two 31-bit digits (62 = 2 * 31). Digit products
   are < 2^62, so the pre-migration operand-scanning and Algorithm D code
   works verbatim at this radix; these are the pure-OCaml fallback kernels
   and the only division path. *)

let digit_bits = 31
let digit_base = 1 lsl digit_bits
let digit_mask = digit_base - 1

let to_digits a =
  let la = Array.length a in
  let d = Array.make (2 * la) 0 in
  for i = 0 to la - 1 do
    d.(2 * i) <- a.(i) land digit_mask;
    d.((2 * i) + 1) <- a.(i) lsr digit_bits
  done;
  let n = ref (Array.length d) in
  while !n > 0 && d.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length d then d else Array.sub d 0 !n

let of_digits d =
  let ld = Array.length d in
  let la = (ld + 1) / 2 in
  normalize
    (Array.init la (fun i ->
         let lo = d.(2 * i) in
         let hi = if (2 * i) + 1 < ld then d.((2 * i) + 1) else 0 in
         lo lor (hi lsl digit_bits)))

let digits_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land digit_mask;
        carry := cur lsr digit_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land digit_mask;
        carry := cur lsr digit_bits;
        incr k
      done
    done;
    r
  end

(* The reference quadratic product: pure OCaml, no C, no recursion. Oracle
   for every other multiply tier in tests and benches. *)
let mul_schoolbook a b = of_digits (digits_mul (to_digits a) (to_digits b))

(* Base multiply: the C operand-scanning kernel when enabled and within its
   buffer cap, the digit schoolbook otherwise. Oversized unbalanced operands
   (long * short below the Karatsuba threshold) are fed to C in slices. *)
let c_mul a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  Kernel.nat_mul a b r;
  normalize r

(* [add_at r x off]: r += x * 2^(62 off), in place. The carry walk past the
   end of [x] cannot overrun [r] as long as the running sum stays below
   2^(62 * length r), which holds at every combine site (partial sums of a
   product are bounded by the product). *)
let add_at r x off =
  let lx = Array.length x in
  let carry = ref 0 in
  for i = 0 to lx - 1 do
    let cur = r.(off + i) + x.(i) + !carry in
    r.(off + i) <- cur land mask;
    carry := cur lsr base_bits
  done;
  let j = ref (off + lx) in
  while !carry <> 0 do
    let cur = r.(!j) + !carry in
    r.(!j) <- cur land mask;
    carry := cur lsr base_bits;
    incr j
  done

let mul_base a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if not Kernel.use_c then mul_schoolbook a b
  else if la + lb <= Kernel.mul_cap then c_mul a b
  else begin
    (* Slice the longer operand so each C call fits its stack buffer. Only
       reachable for very unbalanced pairs: balanced ones split in the
       recursive tiers long before 1024 limbs. *)
    let x, y = if la >= lb then (a, b) else (b, a) in
    let lx = Array.length x and ly = Array.length y in
    let chunk = Kernel.mul_cap - ly in
    let r = Array.make (la + lb) 0 in
    let off = ref 0 in
    while !off < lx do
      let len = min chunk (lx - !off) in
      let part = normalize (Array.sub x !off len) in
      if not (is_zero part) then add_at r (c_mul part y) !off;
      off := !off + len
    done;
    normalize r
  end

(* z0 + z1 * 2^(62 m) + z2 * 2^(62 * 2m) accumulated into one [len]-limb
   array — a single allocation instead of shift-and-add chains. *)
let combine ~len z0 z1 z2 m =
  let r = Array.make len 0 in
  Array.blit z0 0 r 0 (Array.length z0);
  add_at r z1 m;
  add_at r z2 (2 * m);
  normalize r

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((n - 1) * base_bits) + width 1
  end

let shift_left a k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      (* At this radix the shifted limb no longer fits one native int:
         split into the in-limb part and the explicit spill. *)
      r.(i + limb_shift) <- r.(i + limb_shift) lor ((a.(i) lsl bit_shift) land mask);
      if bit_shift > 0 then
        r.(i + limb_shift + 1) <- a.(i) lsr (base_bits - bit_shift)
    done;
    normalize r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single native divisor below 2^31, one half-limb step at a
   time: the running remainder is < d < 2^31, so each window
   [(rem lsl 31) lor digit] is below 2^62. *)
let divmod_limb a d =
  assert (d > 0 && d < digit_base);
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let hi_win = (!r lsl digit_bits) lor (a.(i) lsr digit_bits) in
    let q_hi = hi_win / d in
    let lo_win = ((hi_win mod d) lsl digit_bits) lor (a.(i) land digit_mask) in
    q.(i) <- (q_hi lsl digit_bits) lor (lo_win / d);
    r := lo_win mod d
  done;
  (normalize q, !r)

(* Remainder by a native divisor in one high-to-low sweep, without building
   the quotient. Valid for d < 2^36; the limb is consumed in chunks small
   enough that [(rem lsl chunk) lor bits] stays below 2^62 — two 31-bit
   chunks when d < 2^31, a 10/26/26 split otherwise. The prime-search
   prefilter leans on the wider bound to reduce by whole products of small
   primes at a time. *)
let rem_int_max = 1 lsl 36

let rem_int a d =
  if d <= 0 || d >= rem_int_max then invalid_arg "Nat.rem_int: divisor out of range";
  let r = ref 0 in
  if d < digit_base then
    for i = Array.length a - 1 downto 0 do
      let ai = a.(i) in
      let t = ((!r lsl digit_bits) lor (ai lsr digit_bits)) mod d in
      r := ((t lsl digit_bits) lor (ai land digit_mask)) mod d
    done
  else
    for i = Array.length a - 1 downto 0 do
      let ai = a.(i) in
      let t = ((!r lsl 10) lor (ai lsr 52)) mod d in
      let t = ((t lsl 26) lor ((ai lsr 26) land 0x3ffffff)) mod d in
      r := ((t lsl 26) lor (ai land 0x3ffffff)) mod d
    done;
  !r

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D, run over the 31-bit digit view so
   the two-digit numerators and qhat * digit products fit a native int. Both
   operands are first shifted so the divisor's top digit has its high bit
   set, which bounds the quotient guess [qhat] to within 2 of the true
   digit. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 && b.(0) < digit_base then begin
    let q, r = divmod_limb a b.(0) in
    (q, if r = 0 then zero else [| r |])
  end
  else begin
    let bd = to_digits b in
    let shift = digit_bits - (bit_length b - ((Array.length bd - 1) * digit_bits)) in
    let u = to_digits (shift_left a shift) and v = to_digits (shift_left b shift) in
    let n = Array.length v in
    (* Working copy of the dividend with one extra high digit. *)
    let m = Array.length u - n in
    let u = Array.append u (Array.make (m + n + 2 - Array.length u) 0) in
    let q = Array.make (m + 1) 0 in
    let v_top = v.(n - 1) and v_next = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl digit_bits) lor u.(j + n - 1) in
      let qhat = ref (num / v_top) and rhat = ref (num mod v_top) in
      if !qhat >= digit_base then begin
        qhat := digit_base - 1;
        rhat := num - ((digit_base - 1) * v_top)
      end;
      let continue = ref true in
      while !continue && !rhat < digit_base do
        if !qhat * v_next > (!rhat lsl digit_bits) lor u.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + v_top
        end
        else continue := false
      done;
      (* Multiply-and-subtract [qhat * v] from the current window of [u]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr digit_bits;
        let d = u.(j + i) - (p land digit_mask) - !borrow in
        if d < 0 then begin
          u.(j + i) <- d + digit_base;
          borrow := 1
        end
        else begin
          u.(j + i) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* The guess was one too large: add the divisor back. *)
        u.(j + n) <- d + digit_base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(j + i) + v.(i) + !carry in
          u.(j + i) <- s land digit_mask;
          carry := s lsr digit_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land digit_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = of_digits (Array.sub u 0 n) in
    (of_digits q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* --- recursive multiply tiers --------------------------------------------

   Base (C operand scanning / digit schoolbook) below [karatsuba_threshold]
   limbs, Karatsuba in the middle, Toom-3 from [toom3_threshold] up.
   Thresholds were measured against the C kernel on the committed bench
   host: the quadratic kernel holds its own up to ~64 limbs (~4000 bits)
   and Karatsuba wins cleanly from 96, so the switch sits at 80; Toom-3's
   five evaluations only amortize once both operands pass ~512 limbs
   (~32000 bits — mul pulls ahead near 1024 limbs, sqr already at 768).
   bench/modarith's toom rows re-measure both crossover neighborhoods. *)

let karatsuba_threshold = 80
let toom3_threshold = 512

(* Slice [len] limbs of x starting at [off] (clamped, normalized). *)
let slice x off len =
  let lx = Array.length x in
  if off >= lx then zero else normalize (Array.sub x off (min len (lx - off)))

(* |u - v| with its sign: Toom-3's evaluation at -1 is the only signed value
   in the whole pipeline, so a (sign, magnitude) pair beats a signed-Nat
   wrapper. *)
let sub_signed u v = if compare u v >= 0 then (1, sub u v) else (-1, sub v u)

(* The C square kernel needs 2 * la <= Kernel.mul_cap, capping the base
   tier at 512 limbs. Squaring's cheaper inner loop pushes its Karatsuba
   crossover past that cap, so base squaring runs right up to the Toom-3
   tier and the split recursion below only fires if the thresholds move. *)
let sqr_base_max = 512

let sqr_base a =
  if not Kernel.use_c then begin
    let d = to_digits a in
    of_digits (digits_mul d d)
  end
  else begin
    let la = Array.length a in
    let r = Array.make (2 * la) 0 in
    Kernel.nat_sqr a r;
    normalize r
  end

let rec sqr a =
  let la = Array.length a in
  if la = 0 then zero
  else if la <= sqr_base_max then sqr_base a
  else if la >= toom3_threshold then toom3_sqr a
  else begin
    (* a = a1 * X + a0, a^2 = a1^2 X^2 + ((a0+a1)^2 - a0^2 - a1^2) X + a0^2:
       three half-size squarings, no general multiplication needed. *)
    let m = la / 2 in
    let a0 = normalize (Array.sub a 0 m) and a1 = Array.sub a m (la - m) in
    let z0 = sqr a0 and z2 = sqr a1 in
    let z1 = sub (sqr (add a0 a1)) (add z0 z2) in
    combine ~len:(2 * la) z0 z1 z2 m
  end

and mul a b =
  if a == b then sqr a
  else begin
    let la = Array.length a and lb = Array.length b in
    if la = 0 || lb = 0 then zero
    else if la < karatsuba_threshold || lb < karatsuba_threshold then mul_base a b
    else if la >= toom3_threshold && lb >= toom3_threshold then toom3_mul a b
    else begin
      let m = max la lb / 2 in
      let low x lx = if lx <= m then x else normalize (Array.sub x 0 m) in
      let high x lx = if lx <= m then zero else Array.sub x m (lx - m) in
      let a0 = low a la and a1 = high a la in
      let b0 = low b lb and b1 = high b lb in
      let z0 = mul a0 b0 in
      let z2 = mul a1 b1 in
      let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
      combine ~len:(la + lb) z0 z1 z2 m
    end
  end

(* Toom-3: split both operands into three parts at X = 2^(62 m), evaluate
   the part polynomials at {0, 1, -1, 2, inf}, multiply pointwise (five
   third-size products instead of Karatsuba's scaled 5.. = 3^log ratio),
   and interpolate. With A = a2 X^2 + a1 X + a0 and coefficients
   c0..c4 of the product polynomial:

     w0 = c0                         (at 0)
     w1 = c0 + c1 + c2 + c3 + c4     (at 1)
     wm = c0 - c1 + c2 - c3 + c4     (at -1, the one signed value)
     w2 = c0 + 2c1 + 4c2 + 8c3 + 16c4  (at 2)
     wi = c4                         (at inf)

   so (w1 + wm)/2 = c0 + c2 + c4 and (w1 - wm)/2 = c1 + c3 recover c2 and
   the odd pair; w2 minus the known even part leaves 2c1 + 8c3, and
   ((w2')/2 - (c1 + c3)) / 3 = c3. Every subtraction below is of a value
   from a sum that contains it, so all intermediates stay non-negative; the
   halvings are exact (even values) and the division by 3 is exact, asserted
   via the single-limb remainder. *)
and toom3_parts x m = (slice x 0 m, slice x m m, slice x (2 * m) max_int)

and toom3_eval x m =
  let x0, x1, x2 = toom3_parts x m in
  let p = add x0 x2 in
  let at1 = add p x1 in
  let s, atm = sub_signed p x1 in
  let at2 = add (add x0 (shift_left x1 1)) (shift_left x2 2) in
  (x0, x2, at1, s, atm, at2)

and toom3_interp ~len ~m ~w0 ~wi ~w1 ~sm ~wm ~w2 =
  let even = shift_right (if sm >= 0 then add w1 wm else sub w1 wm) 1 in
  let odd = shift_right (if sm >= 0 then sub w1 wm else add w1 wm) 1 in
  let c2 = sub even (add w0 wi) in
  let t = sub w2 (add w0 (add (shift_left c2 2) (shift_left wi 4))) in
  let t = shift_right t 1 in
  let c3, r3 = divmod_limb (sub t odd) 3 in
  assert (r3 = 0);
  let c1 = sub odd c3 in
  let r = Array.make len 0 in
  Array.blit w0 0 r 0 (Array.length w0);
  add_at r c1 m;
  add_at r c2 (2 * m);
  add_at r c3 (3 * m);
  add_at r wi (4 * m);
  normalize r

and toom3_mul a b =
  let la = Array.length a and lb = Array.length b in
  let m = ((max la lb) + 2) / 3 in
  let a0, a2, a_1, sa, a_m, a_2 = toom3_eval a m in
  let b0, b2, b_1, sb, b_m, b_2 = toom3_eval b m in
  let w0 = mul a0 b0 in
  let wi = mul a2 b2 in
  let w1 = mul a_1 b_1 in
  let wm = mul a_m b_m in
  let w2 = mul a_2 b_2 in
  toom3_interp ~len:(la + lb) ~m ~w0 ~wi ~w1 ~sm:(sa * sb) ~wm ~w2

and toom3_sqr a =
  let la = Array.length a in
  let m = (la + 2) / 3 in
  let a0, a2, a_1, _sa, a_m, a_2 = toom3_eval a m in
  let w0 = sqr a0 in
  let wi = sqr a2 in
  let w1 = sqr a_1 in
  let wm = sqr a_m in
  let w2 = sqr a_2 in
  toom3_interp ~len:(2 * la) ~m ~w0 ~wi ~w1 ~sm:1 ~wm ~w2

(* Scalars below 2^31 multiply in one digit sweep: digit * k < 2^62 plus a
   carry < k stays inside a native int. Larger scalars fall back to a full
   multiplication. *)
let mul_int_max = digit_base

let mul_int a k =
  if k < 0 then invalid_arg "Nat.mul_int: negative"
  else if k = 0 || is_zero a then zero
  else if k < mul_int_max then begin
    let d = to_digits a in
    let ld = Array.length d in
    let r = Array.make (ld + 2) 0 in
    let carry = ref 0 in
    for i = 0 to ld - 1 do
      let cur = (d.(i) * k) + !carry in
      r.(i) <- cur land digit_mask;
      carry := cur lsr digit_bits
    done;
    r.(ld) <- !carry land digit_mask;
    r.(ld + 1) <- !carry lsr digit_bits;
    of_digits r
  end
  else mul a (of_int k)

let pow a k =
  if k < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec go acc base k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (k lsr 1)
    end
  in
  go one a k

let ten_pow_7 = 10_000_000

let to_string a =
  if is_zero a then "0"
  else begin
    (* Peel seven decimal digits at a time using single-limb division. *)
    let rec chunks a acc =
      if is_zero a then acc
      else
        let q, r = divmod_limb a ten_pow_7 in
        chunks q (r :: acc)
    in
    match chunks a [] with
    | [] -> assert false
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest;
      Buffer.contents buf
  end

(* Integer powers of ten for the parsing chunks; [ten_pow.(k) = 10^k] for
   k <= 7. Exact by construction, unlike a [10. ** k] round-trip. *)
let ten_pow = [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

let of_string s =
  if s = "" then invalid_arg "Nat.of_string: empty";
  String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Nat.of_string: not a digit") s;
  let acc = ref zero in
  let i = ref 0 in
  let len = String.length s in
  while !i < len do
    let take = min 7 (len - !i) in
    let chunk = int_of_string (String.sub s !i take) in
    acc := add_int (mul_int !acc ten_pow.(take)) chunk;
    i := !i + take
  done;
  !acc

let to_limbs a = Array.copy a

let of_limbs l =
  Array.iteri
    (fun i x ->
      if x < 0 || x > mask then
        invalid_arg
          (Printf.sprintf "Nat.of_limbs: limb %d is %d, outside [0, 2^%d) for the %d-bit radix" i x
             base_bits base_bits))
    l;
  normalize (Array.copy l)

(* The frozen draw radix: random values consume the Rng in 26-bit chunks
   (plus one short top chunk), low to high, regardless of the storage radix.
   This is byte-for-byte the stream the 26-bit representation consumed, so
   every pinned (seed -> value) table survives limb migrations. *)
let draw_radix = 26

(* The chunk stream for a native bound: at most 62 bits, so every chunk
   lands in one int and no limb array is allocated per draw. *)
let random_below_int rng bound =
  if bound <= 0 then invalid_arg "Nat.random_below_int: non-positive bound";
  let rec width w = if bound lsr w = 0 then w else width (w + 1) in
  let k = width 1 in
  let chunks = (k + draw_radix - 1) / draw_radix in
  let top_bits = k - ((chunks - 1) * draw_radix) in
  let rec draw () =
    let r = ref 0 in
    for i = 0 to chunks - 1 do
      let w = if i = chunks - 1 then top_bits else draw_radix in
      r := !r lor (Rng.bits rng w lsl (i * draw_radix))
    done;
    if !r < bound then !r else draw ()
  in
  draw ()

(* A one-limb bound draws natively; a wider one assembles the same stream
   into limbs. *)
let random_below rng n =
  if is_zero n then invalid_arg "Nat.random_below: zero bound";
  match to_int_opt n with
  | Some bound -> of_int (random_below_int rng bound)
  | None ->
    let k = bit_length n in
    let chunks = (k + draw_radix - 1) / draw_radix in
    let top_bits = k - ((chunks - 1) * draw_radix) in
    let nlimbs = (k + base_bits - 1) / base_bits in
    let rec draw () =
      let r = Array.make nlimbs 0 in
      for i = 0 to chunks - 1 do
        let width = if i = chunks - 1 then top_bits else draw_radix in
        let c = Rng.bits rng width in
        let bit = i * draw_radix in
        let idx = bit / base_bits and off = bit mod base_bits in
        r.(idx) <- r.(idx) lor ((c lsl off) land mask);
        if off + width > base_bits && idx + 1 < nlimbs then
          r.(idx + 1) <- r.(idx + 1) lor (c lsr (base_bits - off))
      done;
      let r = normalize r in
      if compare r n < 0 then r else draw ()
    in
    draw ()

let random_in rng lo hi =
  if compare lo hi > 0 then invalid_arg "Nat.random_in: empty range";
  add lo (random_below rng (add_int (sub hi lo) 1))

let pp fmt a = Format.pp_print_string fmt (to_string a)
