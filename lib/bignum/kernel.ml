(* Bindings for the C wide-limb kernels (ids_kernel.c) plus the process-wide
   backend switch.  All externals are [@@noalloc]: they touch only immediate
   int-array elements, never allocate, and never call back into OCaml. The
   array kernels are reached only through the size-checking wrappers.

   `IDS_BIGNUM_KERNEL=ocaml` pins the pure-OCaml paths instead — the hi:lo
   splits in nat.ml/montgomery.ml and [mulmod62_ocaml] below. They are slower
   but portable, and running the suite on them is the independent check of
   the C kernels: every external here is reached only behind [use_c]. *)

external nat_mul_c : int array -> int array -> int array -> unit
  = "ids_nat_mul_stub"
[@@noalloc]

external nat_sqr_c : int array -> int array -> unit = "ids_nat_sqr_stub"
[@@noalloc]

external mont_mul_c : int array -> int -> int array -> int array -> int array -> unit
  = "ids_mont_mul_stub"
[@@noalloc]

external mont_sqr_c : int array -> int -> int array -> int array -> unit
  = "ids_mont_sqr_stub"
[@@noalloc]

external mont_redc_c : int array -> int -> int array -> int array -> unit
  = "ids_mont_redc_stub"
[@@noalloc]

external mulmod62_c : int -> int -> int -> int = "ids_mulmod62_stub" [@@noalloc]

(* The C side sizes its stack buffers for la + lb <= 1024 limbs and
   Montgomery moduli of at most 512 limbs; Nat's dispatch splits larger
   operands before reaching the base kernel, so these caps are contracts,
   not tunables. The wrappers below check every size a stub reads or
   writes, so a violation is an [Invalid_argument], never a write past a
   stack buffer or an OCaml block. *)
let mul_cap = 1024
let mont_cap = 512

let nat_mul a b dst =
  let la = Array.length a and lb = Array.length b in
  if la < 1 || lb < 1 || la + lb > mul_cap || Array.length dst < la + lb then
    invalid_arg "Kernel.nat_mul: size contract";
  nat_mul_c a b dst

let nat_sqr a dst =
  let la = Array.length a in
  if la < 1 || 2 * la > mul_cap || Array.length dst < 2 * la then invalid_arg "Kernel.nat_sqr: size contract";
  nat_sqr_c a dst

(* [operand] is the shortest k-limb operand's length. *)
let check_mont name m ~operand dst =
  let k = Array.length m in
  if k < 1 || k > mont_cap || operand < k || Array.length dst < k then
    invalid_arg ("Kernel." ^ name ^ ": size contract")

let mont_mul m n0 x y dst =
  check_mont "mont_mul" m ~operand:(Int.min (Array.length x) (Array.length y)) dst;
  mont_mul_c m n0 x y dst

let mont_sqr m n0 x dst =
  check_mont "mont_sqr" m ~operand:(Array.length x) dst;
  mont_sqr_c m n0 x dst

let mont_redc m n0 v dst =
  check_mont "mont_redc" m ~operand:(Array.length m) dst;
  if Array.length v > 2 * Array.length m then invalid_arg "Kernel.mont_redc: size contract";
  mont_redc_c m n0 v dst

let use_c =
  match Sys.getenv_opt "IDS_BIGNUM_KERNEL" with
  | Some "ocaml" -> false
  | Some "c" | None | Some _ -> true

(* [v mod p] for 0 <= v < 2^32 p, given only v's low 63 bits (native
   wrapping arithmetic) and a float approximation [fv] whose relative error
   is a few ulps.  The quotient is below 2^32, so its float estimate is
   within 2^-18 of v/p and its floor after subtracting 1/2 is floor(v/p) or
   one less. The remainder v - q*p is then in [0, 2p), a 63-bit window the
   wrapped difference represents exactly (negative when >= 2^62): one
   conditional subtraction lands it in [0, p). *)
let mod_est v fv p =
  let q = int_of_float (Float.floor ((fv /. float_of_int p) -. 0.5)) in
  let r = v - (q * p) in
  if r < 0 || r >= p then r - p else r

(* a * b mod p without a 124-bit product: Horner over b's two 31-bit
   halves, each step a product below 2^94 reduced by [mod_est]. *)
let mulmod62_ocaml a b p =
  let bh = b lsr 31 and bl = b land 0x7fff_ffff in
  let t = mod_est (a * bh) (float_of_int a *. float_of_int bh) p in
  mod_est
    ((t lsl 31) + (a * bl))
    (Float.ldexp (float_of_int t) 31 +. (float_of_int a *. float_of_int bl))
    p

let mulmod62 a b p = if use_c then mulmod62_c a b p else mulmod62_ocaml a b p
