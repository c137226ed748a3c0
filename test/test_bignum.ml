(* Tests for the ids_bignum substrate: naturals against a native-int oracle,
   decimal round-trips, division invariants on large operands, modular
   arithmetic, and primality. *)

open Ids_bignum

let nat = Alcotest.testable Nat.pp Nat.equal

(* --- generators ----------------------------------------------------------- *)

let small_int = QCheck.Gen.int_bound 1_000_000

let gen_pair = QCheck.Gen.pair small_int small_int

(* A random Nat of up to [limbs] limbs, built via decimal strings so we
   do not trust the arithmetic under test to construct its own inputs. *)
let gen_big_string =
  QCheck.Gen.(
    let* digits = int_range 1 60 in
    let* first = int_range 1 9 in
    let* rest = list_repeat (digits - 1) (int_range 0 9) in
    return (String.concat "" (List.map string_of_int (first :: rest))))

let arb_big_string = QCheck.make ~print:(fun s -> s) gen_big_string

(* --- unit tests ----------------------------------------------------------- *)

let test_of_int_roundtrip () =
  List.iter
    (fun k -> Alcotest.(check int) (string_of_int k) k (Nat.to_int (Nat.of_int k)))
    [ 0; 1; 2; 67_108_863; 67_108_864; 67_108_865; max_int; 123_456_789_012_345 ]

let test_of_int_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative") (fun () ->
      ignore (Nat.of_int (-1)))

let test_to_string_known () =
  Alcotest.(check string) "zero" "0" (Nat.to_string Nat.zero);
  Alcotest.(check string) "small" "42" (Nat.to_string (Nat.of_int 42));
  Alcotest.(check string) "max_int" (string_of_int max_int) (Nat.to_string (Nat.of_int max_int));
  let big = Nat.mul (Nat.of_int max_int) (Nat.of_int max_int) in
  (* (2^62 - 1)^2 = 21267647932558653957237540927630737409 *)
  Alcotest.(check string) "max_int squared" "21267647932558653957237540927630737409" (Nat.to_string big)

let test_of_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Nat.to_string (Nat.of_string s)))
    [ "0"; "1"; "10000000"; "99999999999999999999999999999999"; "340282366920938463463374607431768211456" ]

let test_of_string_chunk_boundaries () =
  (* The parser consumes seven decimal digits per step with an integer power
     table (it used to compute the chunk radix through [10. ** k], a float
     round-trip). Exercise every chunk length 1..7 plus values straddling
     the 7-digit boundary, against the native oracle. *)
  List.iteri
    (fun k want ->
      Alcotest.(check int)
        (Printf.sprintf "10^%d" k)
        want
        (Nat.to_int (Nat.of_string ("1" ^ String.make k '0'))))
    [ 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 ];
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (Nat.to_int (Nat.of_string (string_of_int v))))
    [ 9_999_999; 10_000_000; 10_000_001; 99_999_999; 100_000_000;
      99_999_999_999_999; 100_000_000_000_000; 123_456_789_012_345 ];
  (* Leading zeros collapse to the same value. *)
  Alcotest.check nat "leading zeros" (Nat.of_int 42) (Nat.of_string "0000000000000042")

let test_of_string_malformed () =
  List.iter
    (fun s ->
      match Nat.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "of_string %S should fail" s)
    [ ""; "12a"; "-5"; " 1" ]

let test_sub_underflow () =
  Alcotest.check_raises "underflow" (Invalid_argument "Nat.sub: would be negative") (fun () ->
      ignore (Nat.sub Nat.one Nat.two))

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Nat.divmod Nat.one Nat.zero))

let test_pow_known () =
  Alcotest.check nat "2^100"
    (Nat.of_string "1267650600228229401496703205376")
    (Nat.pow Nat.two 100);
  Alcotest.check nat "x^0 = 1" Nat.one (Nat.pow (Nat.of_int 12345) 0);
  Alcotest.check nat "0^0 = 1" Nat.one (Nat.pow Nat.zero 0);
  Alcotest.check nat "0^5 = 0" Nat.zero (Nat.pow Nat.zero 5)

let test_shift_known () =
  Alcotest.check nat "1 << 200 >> 200" Nat.one (Nat.shift_right (Nat.shift_left Nat.one 200) 200);
  Alcotest.check nat "shift past end" Nat.zero (Nat.shift_right (Nat.of_int 12345) 100);
  Alcotest.(check int) "bit_length (1<<130)" 131 (Nat.bit_length (Nat.shift_left Nat.one 130))

let test_bit_length () =
  Alcotest.(check int) "0" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check int) "1" 1 (Nat.bit_length Nat.one);
  Alcotest.(check int) "255" 8 (Nat.bit_length (Nat.of_int 255));
  Alcotest.(check int) "256" 9 (Nat.bit_length (Nat.of_int 256))

let test_to_int_overflow () =
  let big = Nat.mul (Nat.of_int max_int) Nat.two in
  Alcotest.(check (option int)) "overflow" None (Nat.to_int_opt big);
  Alcotest.(check (option int)) "max_int fits" (Some max_int) (Nat.to_int_opt (Nat.of_int max_int))

(* Long division against hand-checked values that exercise the add-back path
   and multi-limb divisors. *)
let test_divmod_known () =
  let check_div a b =
    let a = Nat.of_string a and b = Nat.of_string b in
    let q, r = Nat.divmod a b in
    Alcotest.check nat "a = q*b + r" a (Nat.add (Nat.mul q b) r);
    Alcotest.(check bool) "r < b" true (Nat.compare r b < 0)
  in
  check_div "340282366920938463463374607431768211456" "18446744073709551617";
  check_div "99999999999999999999999999999999999999" "3";
  check_div "170141183460469231731687303715884105728" "170141183460469231731687303715884105727";
  check_div "123456789123456789123456789" "987654321987654321";
  check_div "18446744073709551615" "4294967296"

(* --- property tests ------------------------------------------------------- *)

let prop_add_matches_int =
  QCheck.Test.make ~name:"add matches int oracle" ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      Nat.to_int (Nat.add (Nat.of_int a) (Nat.of_int b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int oracle" ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b)

let prop_sub_matches_int =
  QCheck.Test.make ~name:"sub matches int oracle" ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      let hi = max a b and lo = min a b in
      Nat.to_int (Nat.sub (Nat.of_int hi) (Nat.of_int lo)) = hi - lo)

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"divmod matches int oracle" ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      QCheck.assume (b > 0);
      let q, r = Nat.divmod (Nat.of_int a) (Nat.of_int b) in
      Nat.to_int q = a / b && Nat.to_int r = a mod b)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"decimal string roundtrip" ~count:200 arb_big_string (fun s ->
      Nat.to_string (Nat.of_string s) = s)

let prop_divmod_invariant_big =
  QCheck.Test.make ~name:"big divmod invariant a = q*b + r, r < b" ~count:200
    (QCheck.pair arb_big_string arb_big_string) (fun (sa, sb) ->
      let a = Nat.of_string sa and b = Nat.of_string sb in
      QCheck.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let prop_mul_commutative_big =
  QCheck.Test.make ~name:"big mul commutative" ~count:200 (QCheck.pair arb_big_string arb_big_string)
    (fun (sa, sb) ->
      let a = Nat.of_string sa and b = Nat.of_string sb in
      Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_distributive_big =
  QCheck.Test.make ~name:"big distributivity a*(b+c) = a*b + a*c" ~count:200
    (QCheck.triple arb_big_string arb_big_string arb_big_string) (fun (sa, sb, sc) ->
      let a = Nat.of_string sa and b = Nat.of_string sb and c = Nat.of_string sc in
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_shift_is_mul_pow2 =
  QCheck.Test.make ~name:"shift_left k = mul by 2^k" ~count:200
    (QCheck.pair arb_big_string (QCheck.int_bound 120)) (fun (sa, k) ->
      let a = Nat.of_string sa in
      Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.pow Nat.two k)))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare consistent with sub" ~count:200
    (QCheck.pair arb_big_string arb_big_string) (fun (sa, sb) ->
      let a = Nat.of_string sa and b = Nat.of_string sb in
      match Nat.compare a b with
      | 0 -> Nat.equal a b
      | c when c < 0 -> not (Nat.is_zero (Nat.sub b a)) || Nat.equal a b
      | _ -> not (Nat.is_zero (Nat.sub a b)))

(* --- modular arithmetic --------------------------------------------------- *)

let prop_mod_ops_match_int =
  QCheck.Test.make ~name:"modular ops match int oracle" ~count:500
    (QCheck.make QCheck.Gen.(triple small_int small_int (int_range 2 100000)))
    (fun (a, b, m) ->
      let na = Nat.of_int (a mod m) and nb = Nat.of_int (b mod m) and nm = Nat.of_int m in
      Nat.to_int (Modarith.add na nb nm) = (((a mod m) + (b mod m)) mod m)
      && Nat.to_int (Modarith.mul na nb nm) = ((a mod m) * (b mod m)) mod m
      && Nat.to_int (Modarith.sub na nb nm) = ((((a mod m) - (b mod m)) mod m) + m) mod m)

let test_pow_mod_fermat () =
  (* Fermat's little theorem on a large known prime: a^(p-1) = 1 mod p. *)
  let p = Nat.of_string "170141183460469231731687303715884105727" in
  (* 2^127 - 1, a Mersenne prime *)
  let a = Nat.of_string "123456789123456789" in
  Alcotest.check nat "a^(p-1) mod p = 1" Nat.one (Modarith.pow a (Nat.sub p Nat.one) p)

let prop_pow_int_matches_pow =
  QCheck.Test.make ~name:"pow_int matches pow" ~count:100
    (QCheck.make QCheck.Gen.(triple small_int (int_bound 50) (int_range 2 100000)))
    (fun (a, e, m) ->
      let na = Nat.of_int a and nm = Nat.of_int m in
      Nat.equal (Modarith.pow_int na e nm) (Modarith.pow na (Nat.of_int e) nm))

(* --- precomputed contexts (Montgomery / Barrett kernel) -------------------- *)

(* Decimal strings of up to ~330 digits (~1100 bits): the dSym modulus regime
   p ~ n^(n+2), far past anything the native oracle covers. *)
let gen_huge_string =
  QCheck.Gen.(
    let* digits = int_range 1 330 in
    let* first = int_range 1 9 in
    let* rest = list_repeat (digits - 1) (int_range 0 9) in
    return (String.concat "" (List.map string_of_int (first :: rest))))

let arb_huge_string = QCheck.make ~print:(fun s -> s) gen_huge_string

(* Moduli >= 2 of either parity, up to the same size. *)
let arb_ctx_case =
  QCheck.make
    ~print:(fun (a, e, m) -> Printf.sprintf "a=%s e=%s m=%s" a e m)
    QCheck.Gen.(
      let* a = gen_huge_string in
      let* e = gen_big_string in
      let* m = gen_huge_string in
      return (a, e, m))

let prop_ctx_matches_naive =
  QCheck.Test.make ~name:"ctx ops match naive Modarith (odd and even moduli)" ~count:120
    arb_ctx_case (fun (sa, se, sm) ->
      let a = Nat.of_string sa and e = Nat.of_string se in
      let m = Nat.add_int (Nat.of_string sm) 2 (* >= 2 *) in
      let c = Modarith.ctx m in
      let ar = Nat.rem a m in
      Nat.equal (Modarith.ctx_mul c a a) (Modarith.mul a a m)
      && Nat.equal (Modarith.ctx_pow c a e) (Modarith.pow a e m)
      && Nat.equal (Modarith.ctx_add c ar ar) (Modarith.add ar ar m)
      && Nat.equal (Modarith.ctx_sub c ar (Nat.rem e m)) (Modarith.sub ar (Nat.rem e m) m))

let prop_montgomery_matches_naive =
  QCheck.Test.make ~name:"Montgomery mul/pow match naive Modarith" ~count:120
    arb_ctx_case (fun (sa, se, sm) ->
      let a = Nat.of_string sa and e = Nat.of_string se in
      (* Force the modulus odd and >= 3. *)
      let m = Nat.of_string sm in
      let m = if Nat.is_zero (Nat.rem m Nat.two) then Nat.add_int m 1 else m in
      let m = if Nat.compare m (Nat.of_int 3) < 0 then Nat.of_int 3 else m in
      let t = Montgomery.make m in
      Nat.equal (Montgomery.mul t a a) (Modarith.mul a a m)
      && Nat.equal (Montgomery.pow t a e) (Modarith.pow a e m)
      && Nat.equal (Montgomery.pow_int t a 17) (Modarith.pow_int a 17 m))

let test_montgomery_rejects_bad_moduli () =
  Alcotest.check_raises "even" (Invalid_argument "Montgomery.make: modulus must be odd") (fun () ->
      ignore (Montgomery.make (Nat.of_int 10)));
  Alcotest.check_raises "one" (Invalid_argument "Montgomery.make: modulus must be >= 3") (fun () ->
      ignore (Montgomery.make Nat.one))

let test_ctx_fermat () =
  (* Fermat's little theorem through the fast path, on a ~1000-bit prime:
     2^(p-1) = 1 mod p for the 9th Mersenne prime 2^521 - 1 and known
     non-trivial witnesses. *)
  let p = Nat.sub (Nat.shift_left Nat.one 521) Nat.one in
  let c = Modarith.ctx p in
  let a = Nat.of_string "123456789123456789123456789" in
  Alcotest.check nat "a^(p-1) = 1" Nat.one (Modarith.ctx_pow c a (Nat.sub p Nat.one));
  Alcotest.check nat "matches naive" (Modarith.pow a (Nat.of_int 65537) p)
    (Modarith.ctx_pow c a (Nat.of_int 65537))

let test_ctx_even_modulus () =
  (* The Barrett fallback: a power of two and a doubly-even composite. *)
  List.iter
    (fun (m, a, e) ->
      let m = Nat.of_string m and a = Nat.of_string a and e = Nat.of_string e in
      let c = Modarith.ctx m in
      Alcotest.check nat
        (Printf.sprintf "pow mod %s" (Nat.to_string m))
        (Modarith.pow a e m) (Modarith.ctx_pow c a e))
    [ ("1180591620717411303424", "98765432109876543210", "12345");
      (* 2^70 *)
      ("340282366920938463463374607431768211456", "170141183460469231731687303715884105727", "99");
      (* 2^128 *)
      ("21897604357680877528308623734279007052", "123456789", "1000000007")
      (* 4 * 3^77 *) ]

let test_ctx_rejects_small_moduli () =
  Alcotest.check_raises "zero" (Invalid_argument "Modarith.ctx: modulus must be >= 2") (fun () ->
      ignore (Modarith.ctx Nat.zero));
  Alcotest.check_raises "one" (Invalid_argument "Modarith.ctx: modulus must be >= 2") (fun () ->
      ignore (Modarith.ctx Nat.one))

let test_ctx_cached () =
  (* Same modulus, same cached context (physical equality per domain). *)
  let m = Nat.of_string "1000000000000000000000000000057" in
  Alcotest.(check bool) "cache hit" true (Modarith.ctx m == Modarith.ctx m)

let test_nat_limbs_roundtrip () =
  List.iter
    (fun s ->
      let a = Nat.of_string s in
      Alcotest.check nat s a (Nat.of_limbs (Nat.to_limbs a)))
    [ "0"; "1"; "67108864"; "123456789012345678901234567890123456789" ];
  (* At the 62-bit radix every non-negative int is a valid limb (max_int =
     2^62 - 1), so only negatives can be out of range — and the error names
     the offending index and the radix. *)
  Alcotest.check_raises "limb out of range"
    (Invalid_argument
       (Printf.sprintf "Nat.of_limbs: limb 1 is -5, outside [0, 2^%d) for the %d-bit radix"
          Nat.base_bits Nat.base_bits)) (fun () ->
      ignore (Nat.of_limbs [| 7; -5 |]))

(* --- primality ------------------------------------------------------------ *)

let test_is_prime_int_known () =
  List.iter (fun p -> Alcotest.(check bool) (string_of_int p) true (Prime.is_prime_int p)) [ 2; 3; 5; 101; 7919; 1_000_003 ];
  List.iter (fun c -> Alcotest.(check bool) (string_of_int c) false (Prime.is_prime_int c)) [ 0; 1; 4; 100; 561; 1_000_001 ]

let test_miller_rabin_known () =
  let rng = Rng.create 42 in
  let prime s = Alcotest.(check bool) s true (Prime.is_prime rng (Nat.of_string s)) in
  let composite s = Alcotest.(check bool) s false (Prime.is_prime rng (Nat.of_string s)) in
  prime "170141183460469231731687303715884105727";
  (* 2^127 - 1 *)
  prime "2305843009213693951";
  (* 2^61 - 1 *)
  prime "1000000007";
  composite "170141183460469231731687303715884105725";
  (* Carmichael numbers must be rejected. *)
  composite "561";
  composite "41041";
  composite "825265";
  composite "321197185"

let test_random_prime_in_range () =
  let rng = Rng.create 7 in
  (* The interval from Protocol 2 at n = 10: [10 * 10^12, 100 * 10^12]. *)
  let lo = Nat.of_string "10000000000000" and hi = Nat.of_string "1000000000000000" in
  let p = Prime.random_prime_in rng lo hi in
  Alcotest.(check bool) "lo <= p" true (Nat.compare lo p <= 0);
  Alcotest.(check bool) "p <= hi" true (Nat.compare p hi <= 0);
  Alcotest.(check bool) "p prime" true (Prime.is_prime rng p)

let test_random_prime_int () =
  let rng = Rng.create 11 in
  for n = 4 to 64 do
    (* Protocol 1's interval [10 n^3, 100 n^3]. *)
    let p = Prime.random_prime_in_int rng (10 * n * n * n) (100 * n * n * n) in
    Alcotest.(check bool) "prime" true (Prime.is_prime_int p);
    Alcotest.(check bool) "range" true (p >= 10 * n * n * n && p <= 100 * n * n * n)
  done

(* --- rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 123 in
  let b = Rng.split a in
  let xa = Rng.next_int64 a and xb = Rng.next_int64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  (* Bounds above 2^61 need all 62 bits; the width search once wrapped
     past 1 lsl 62 and never returned. *)
  List.iter
    (fun bound ->
      for _ = 1 to 100 do
        let v = Rng.int rng bound in
        Alcotest.(check bool) "in range above 2^61" true (v >= 0 && v < bound)
      done)
    [ (1 lsl 61) + 1; max_int - 56; max_int ]

let test_rng_int_rough_uniform () =
  let rng = Rng.create 99 in
  let counts = Array.make 10 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d near %d" i c expected)
        true
        (abs (c - expected) < expected / 5))
    counts

let test_rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* --- one-limb modular product ---------------------------------------------

   Kernel.mulmod62 backs Field.int62_field and every one-limb Modarith
   context. Its C path takes a 128-bit product; under IDS_BIGNUM_KERNEL=ocaml
   it reduces float-estimated quotients in native wrapping arithmetic, whose
   failure modes sit at the extremes: moduli up to the largest prime below
   2^62, and operands near p or near 0, whose products leave a remainder
   near 0 or near p. All are checked against the multi-limb product and
   remainder. *)

let arb_mulmod62_case =
  QCheck.make
    ~print:(fun (a, b, p) -> Printf.sprintf "a=%d b=%d p=%d" a b p)
    QCheck.Gen.(
      let* bits = int_range 1 62 in
      let* p = int_range 2 (if bits = 62 then max_int - 56 else 1 lsl bits) in
      let near_p = map (fun d -> max 0 (p - 1 - d)) (int_bound 1000) in
      let small = map (fun d -> min (p - 1) d) (int_bound 1000) in
      let operand = oneof [ near_p; small; int_bound (p - 1) ] in
      let* a = operand in
      let* b = operand in
      return (a, b, p))

let prop_mulmod62_matches_nat =
  QCheck.Test.make ~name:"mulmod62 matches Nat mul/rem up to 2^62 - 57" ~count:2000
    arb_mulmod62_case (fun (a, b, p) ->
      Kernel.mulmod62 a b p
      = Nat.to_int (Nat.rem (Nat.mul (Nat.of_int a) (Nat.of_int b)) (Nat.of_int p)))

(* --- C stub size contracts ---------------------------------------------------

   ids_kernel.c sizes its stack buffers for la + lb <= mul_cap limbs and
   Montgomery moduli of at most mont_cap limbs. Kernel's wrappers check
   every size a stub reads or writes: at the cap the stub runs and its
   result is checked against Nat, one limb past it the wrapper raises. The
   wrappers are called directly, so both make-check passes (C and
   IDS_BIGNUM_KERNEL=ocaml) run the C stubs here. *)

let random_limbs rng len = Array.init len (fun i -> Rng.bits rng 62 lor if i = len - 1 then 1 lsl 61 else 0)
let limbs_nat a = Nat.of_limbs a

let raises_invalid name f =
  Alcotest.(check bool) name true (match f () with () -> false | exception Invalid_argument _ -> true)

let test_nat_kernel_caps () =
  let rng = Rng.create 0xca9 in
  let cap = Kernel.mul_cap in
  let a = random_limbs rng (cap / 2) and b = random_limbs rng (cap / 2) in
  let dst = Array.make cap 0 in
  Kernel.nat_mul a b dst;
  Alcotest.(check bool) "nat_mul at la + lb = cap" true
    (Nat.equal (limbs_nat dst) (Nat.mul_schoolbook (limbs_nat a) (limbs_nat b)));
  Kernel.nat_sqr a dst;
  Alcotest.(check bool) "nat_sqr at 2 la = cap" true
    (Nat.equal (limbs_nat dst) (Nat.mul_schoolbook (limbs_nat a) (limbs_nat a)));
  let a' = random_limbs rng ((cap / 2) + 1) in
  raises_invalid "nat_mul at la + lb = cap + 1" (fun () -> Kernel.nat_mul a' b (Array.make (cap + 1) 0));
  raises_invalid "nat_sqr at 2 la = cap + 2" (fun () -> Kernel.nat_sqr a' (Array.make (cap + 2) 0));
  raises_invalid "nat_mul short dst" (fun () -> Kernel.nat_mul a b (Array.make (cap - 1) 0));
  raises_invalid "nat_sqr short dst" (fun () -> Kernel.nat_sqr a (Array.make (cap - 1) 0));
  raises_invalid "nat_mul empty operand" (fun () -> Kernel.nat_mul [||] b dst)

(* n0 = -m^-1 mod 2^62 by Newton's iteration (each step doubles the
   correct low bits; six steps pass 62). *)
let neg_inv_limb m0 =
  let mask = (1 lsl 62) - 1 in
  let inv = ref m0 in
  for _ = 1 to 6 do
    inv := !inv * (2 - (m0 * !inv)) land mask
  done;
  (- !inv) land mask

let test_mont_kernel_caps () =
  let rng = Rng.create 0x3c4 in
  let k = Kernel.mont_cap in
  let m = random_limbs rng k in
  m.(0) <- m.(0) lor 1;
  let mn = limbs_nat m in
  let n0 = neg_inv_limb m.(0) in
  let below_m () = Nat.to_limbs (Nat.random_below rng mn) |> fun l -> Array.append l (Array.make (k - Array.length l) 0) in
  let x = below_m () and y = below_m () in
  let r = Nat.shift_left Nat.one (62 * k) in
  (* dst * R = v (mod m) is what every Montgomery kernel returns. *)
  let times_r dst = Nat.rem (Nat.mul (limbs_nat dst) r) mn in
  let dst = Array.make k 0 in
  Kernel.mont_mul m n0 x y dst;
  Alcotest.(check bool) "mont_mul at k = mont_cap" true
    (Nat.equal (times_r dst) (Nat.rem (Nat.mul (limbs_nat x) (limbs_nat y)) mn));
  Kernel.mont_sqr m n0 x dst;
  Alcotest.(check bool) "mont_sqr at k = mont_cap" true
    (Nat.equal (times_r dst) (Nat.rem (Nat.mul (limbs_nat x) (limbs_nat x)) mn));
  let v = Array.append x y in
  Kernel.mont_redc m n0 v dst;
  Alcotest.(check bool) "mont_redc at k = mont_cap, 2k limbs" true
    (Nat.equal (times_r dst) (Nat.rem (limbs_nat v) mn));
  let m' = Array.append m [| 1 |] and x' = Array.append x [| 0 |] in
  let dst' = Array.make (k + 1) 0 in
  raises_invalid "mont_mul at k = mont_cap + 1" (fun () -> Kernel.mont_mul m' n0 x' x' dst');
  raises_invalid "mont_sqr at k = mont_cap + 1" (fun () -> Kernel.mont_sqr m' n0 x' dst');
  raises_invalid "mont_redc at k = mont_cap + 1" (fun () -> Kernel.mont_redc m' n0 x' dst');
  raises_invalid "mont_mul short operand" (fun () -> Kernel.mont_mul m n0 x (Array.sub y 0 (k - 1)) dst);
  raises_invalid "mont_sqr short dst" (fun () -> Kernel.mont_sqr m n0 x (Array.make (k - 1) 0));
  raises_invalid "mont_redc 2k + 1 limbs" (fun () -> Kernel.mont_redc m n0 (Array.append v [| 0 |]) dst);
  raises_invalid "mont_mul empty modulus" (fun () -> Kernel.mont_mul [||] n0 x y dst)

(* --- Toom-3 tier boundaries ------------------------------------------------

   The tier switch sits at 512 limbs per operand; sizes straddling it hit
   base/Karatsuba/Toom dispatch seams, and saturated or sparse limb
   patterns stress the evaluation at -1 (the one signed value in the
   pipeline) and the exact-division-by-3 interpolation step. The digit
   schoolbook oracle shares no code with any of the tiers. *)

let test_toom_boundary () =
  let all_ones limbs = Nat.sub (Nat.shift_left Nat.one (62 * limbs)) Nat.one in
  let top_bit limbs = Nat.shift_left Nat.one ((62 * limbs) - 1) in
  let sparse limbs =
    (* top and bottom limb set, zeros between: maximally unbalanced parts *)
    Nat.add (top_bit limbs) (Nat.of_int 12345)
  in
  let rng = Rng.create 0x70f3 in
  let random_limbs limbs = Nat.add (top_bit limbs) (Nat.random_below rng (top_bit limbs)) in
  let cases =
    [ ("511x511", all_ones 511, all_ones 511);
      ("512x512 saturated", all_ones 512, all_ones 512);
      ("513x513", all_ones 513, all_ones 513);
      ("512x511 straddle", random_limbs 512, random_limbs 511);
      ("513x80 unbalanced", random_limbs 513, random_limbs 80);
      ("512x512 sparse", sparse 512, sparse 512);
      ("530x520 random", random_limbs 530, random_limbs 520)
    ]
  in
  List.iter
    (fun (name, a, b) ->
      Alcotest.check nat (name ^ " mul") (Nat.mul_schoolbook a b) (Nat.mul a b);
      Alcotest.check nat (name ^ " sqr") (Nat.mul_schoolbook a a) (Nat.sqr a))
    cases

(* The scale path's modulus cap: Apihash pins q at the largest prime below
   2^62 once the true Section-4 interval outgrows max_int. The constant is
   only sound if it really is the largest such prime. *)
let test_wide_cap_prime () =
  let rng = Rng.create 99 in
  let cap = 4611686018427387847 in
  Alcotest.(check bool) "2^62 - 57 is prime" true (Prime.is_prime rng (Nat.of_int cap));
  Alcotest.(check bool) "cap is 2^62 - 57" true (cap = max_int - 56);
  let rec none_above k =
    k > max_int
    || ((not (Prime.is_prime rng (Nat.of_int k))) && (k = max_int || none_above (k + 2)))
  in
  Alcotest.(check bool) "no prime between the cap and 2^62" true (none_above (cap + 2))

let test_nat_random_below () =
  let rng = Rng.create 17 in
  let n = Nat.of_string "123456789123456789123456789" in
  for _ = 1 to 100 do
    let r = Nat.random_below rng n in
    Alcotest.(check bool) "r < n" true (Nat.compare r n < 0)
  done

let qtest t = QCheck_alcotest.to_alcotest t

let suite =
  [ ( "nat:unit",
      [ Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_int_roundtrip;
        Alcotest.test_case "of_int rejects negative" `Quick test_of_int_negative;
        Alcotest.test_case "to_string known values" `Quick test_to_string_known;
        Alcotest.test_case "of_string roundtrip" `Quick test_of_string_roundtrip;
        Alcotest.test_case "of_string chunk boundaries" `Quick test_of_string_chunk_boundaries;
        Alcotest.test_case "of_string malformed" `Quick test_of_string_malformed;
        Alcotest.test_case "sub underflow" `Quick test_sub_underflow;
        Alcotest.test_case "divmod by zero" `Quick test_divmod_by_zero;
        Alcotest.test_case "pow known values" `Quick test_pow_known;
        Alcotest.test_case "shifts" `Quick test_shift_known;
        Alcotest.test_case "bit_length" `Quick test_bit_length;
        Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
        Alcotest.test_case "divmod known values" `Quick test_divmod_known;
        Alcotest.test_case "random_below in range" `Quick test_nat_random_below
      ] );
    ( "nat:properties",
      List.map qtest
        [ prop_add_matches_int;
          prop_mul_matches_int;
          prop_sub_matches_int;
          prop_divmod_matches_int;
          prop_string_roundtrip;
          prop_divmod_invariant_big;
          prop_mul_commutative_big;
          prop_distributive_big;
          prop_shift_is_mul_pow2;
          prop_compare_total_order
        ] );
    ( "modarith",
      Alcotest.test_case "Fermat little theorem mod 2^127-1" `Quick test_pow_mod_fermat
      :: List.map qtest [ prop_mod_ops_match_int; prop_pow_int_matches_pow ] );
    ( "modarith:ctx",
      [ Alcotest.test_case "Fermat via ctx mod 2^521-1" `Quick test_ctx_fermat;
        Alcotest.test_case "Barrett path on even moduli" `Quick test_ctx_even_modulus;
        Alcotest.test_case "ctx rejects moduli < 2" `Quick test_ctx_rejects_small_moduli;
        Alcotest.test_case "ctx cached per modulus" `Quick test_ctx_cached;
        Alcotest.test_case "Montgomery rejects bad moduli" `Quick test_montgomery_rejects_bad_moduli;
        Alcotest.test_case "limbs roundtrip" `Quick test_nat_limbs_roundtrip;
        qtest prop_ctx_matches_naive;
        qtest prop_montgomery_matches_naive
      ] );
    ( "prime",
      [ Alcotest.test_case "is_prime_int known" `Quick test_is_prime_int_known;
        Alcotest.test_case "Miller-Rabin known primes/composites" `Quick test_miller_rabin_known;
        Alcotest.test_case "random prime in bignum range" `Quick test_random_prime_in_range;
        Alcotest.test_case "random prime in Protocol-1 ranges" `Quick test_random_prime_int
      ] );
    ( "radix",
      [ Alcotest.test_case "Toom-3 tier boundaries" `Quick test_toom_boundary;
        Alcotest.test_case "Apihash wide cap is the largest prime below 2^62" `Quick
          test_wide_cap_prime;
        qtest prop_mulmod62_matches_nat;
        Alcotest.test_case "nat kernels: size contract at cap and cap + 1" `Quick test_nat_kernel_caps;
        Alcotest.test_case "mont kernels: size contract at cap and cap + 1" `Quick test_mont_kernel_caps
      ] );
    ( "rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int roughly uniform" `Quick test_rng_int_rough_uniform;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes
      ] )
  ]
