(* Microbenchmark for the modular-arithmetic kernel: naive Modarith (long
   division everywhere) versus the precomputed contexts (Montgomery for odd
   moduli, Barrett for even) across modulus sizes bracketing what the
   protocols draw, plus Toom-range products against the schoolbook oracle.
   Every row's speedup (naive/ctx) must clear a floor; see [floor_of] below.

   Full run:   dune exec bench/modarith/main.exe        (writes BENCH_modarith.json)
   Smoke run:  dune exec bench/modarith/main.exe -- --smoke
               (tiny sizes and budgets; wired into @runtest-fast)

   Every timed pair is also cross-checked for equality, so the benchmark
   doubles as an end-to-end oracle test at sizes the unit tests skip. *)

module Nat = Ids_bignum.Nat
module Modarith = Ids_bignum.Modarith
module Rng = Ids_bignum.Rng
module Obs = Ids_obs.Obs

type row = {
  bits : int;
  parity : string;
  op : string;
  reps : int;
  naive_us : float;
  ctx_us : float;
  speedup : float;
}

let time_us reps f =
  let t0 = Obs.now_ns () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  float_of_int (Obs.now_ns () - t0) /. 1e3 /. float_of_int reps

(* A timing window is milliseconds, so a single major-GC slice or scheduler
   blip can skew one side by tens of percent. The two columns of a row are
   timed in alternating rounds (naive, ctx, naive, ctx, ...) and each keeps
   its best round: drift in the host's speed then hits both sides of the
   ratio alike instead of whichever happened to run during it. *)
let rounds = 5

let timed_row ~bits ~parity ~op ~reps naive ctx =
  let naive_us = ref infinity and ctx_us = ref infinity in
  for _ = 1 to rounds do
    naive_us := Float.min !naive_us (time_us reps naive);
    ctx_us := Float.min !ctx_us (time_us reps ctx)
  done;
  { bits; parity; op; reps; naive_us = !naive_us; ctx_us = !ctx_us;
    speedup = !naive_us /. !ctx_us }

let random_modulus rng ~bits ~odd =
  let top = Nat.shift_left Nat.one (bits - 1) in
  let m = Nat.add top (Nat.random_below rng top) in
  let m = if Nat.equal (Nat.rem m (Nat.of_int 2)) Nat.one = odd then m else Nat.add m Nat.one in
  (* keep the requested bit length after the parity nudge *)
  if Nat.bit_length m = bits then m else Nat.sub m (Nat.of_int 2)

let check ~what a b =
  if not (Nat.equal a b) then (
    Printf.eprintf "FAIL: ctx %s disagrees with naive Modarith\n" what;
    exit 1)

let bench_modulus ~pow_reps ~mul_reps rng ~bits ~odd =
  let parity = if odd then "odd" else "even" in
  let m = random_modulus rng ~bits ~odd in
  let a = Nat.random_below rng m and b = Nat.random_below rng m in
  let e = Nat.random_below rng m in
  let c = Modarith.ctx m in
  check ~what:"pow" (Modarith.ctx_pow c a e) (Modarith.pow a e m);
  check ~what:"mul" (Modarith.ctx_mul c a b) (Modarith.mul a b m);
  [ timed_row ~bits ~parity ~op:"pow" ~reps:pow_reps
      (fun () -> Modarith.pow a e m)
      (fun () -> Modarith.ctx_pow c a e);
    timed_row ~bits ~parity ~op:"mul" ~reps:mul_reps
      (fun () -> Modarith.mul a b m)
      (fun () -> Modarith.ctx_mul c a b)
  ]

(* Toom-range products: both operands past the 512-limb tier switch, where
   mul runs Toom-3 over Karatsuba over the C kernel. The naive column is
   the pure digit-radix schoolbook oracle. *)
let bench_toom rng ~limbs ~reps =
  let bits = limbs * Nat.base_bits in
  let top = Nat.shift_left Nat.one (bits - 1) in
  let a = Nat.add top (Nat.random_below rng top) in
  let b = Nat.add top (Nat.random_below rng top) in
  check ~what:"toom mul" (Nat.mul a b) (Nat.mul_schoolbook a b);
  check ~what:"toom sqr" (Nat.sqr a) (Nat.mul_schoolbook a a);
  let parity = "-" in
  [ timed_row ~bits ~parity ~op:"toom_mul" ~reps
      (fun () -> Nat.mul_schoolbook a b)
      (fun () -> Nat.mul a b);
    timed_row ~bits ~parity ~op:"toom_sqr" ~reps
      (fun () -> Nat.mul_schoolbook a a)
      (fun () -> Nat.sqr a)
  ]

(* Speedup floors, full mode. Until the wide-limb engine's 26-bit
   predecessor was deleted, these rows were also gated on ctx against that
   engine timed live: pow >= 4x at >= 512 bits and >= 2x at 256, modular mul
   >= 1x, Toom products >= 2x. Each such gate carries over to the naive
   column as old floor x the row's naive_us / legacy_us in the last
   committed run that timed both (BENCH_modarith.json before the deletion):
   (bits, parity, op, old floor, naive_us, legacy_us). *)
let legacy_gates =
  [ (256, "odd", "pow", 2.0, 569.44, 94.84);
    (512, "odd", "pow", 4.0, 2818.28, 554.63);
    (1024, "odd", "pow", 4.0, 17506.00, 3477.55);
    (2048, "odd", "pow", 4.0, 118020.30, 26780.41);
    (256, "odd", "mul", 1.0, 0.74, 0.81);
    (256, "even", "mul", 1.0, 0.82, 1.05);
    (512, "odd", "mul", 1.0, 1.70, 2.25);
    (512, "even", "mul", 1.0, 1.53, 2.19);
    (1024, "odd", "mul", 1.0, 3.92, 7.08);
    (1024, "even", "mul", 1.0, 3.93, 8.24);
    (2048, "odd", "mul", 1.0, 12.81, 26.80);
    (2048, "even", "mul", 1.0, 14.04, 30.30);
    (49600, "-", "toom_mul", 2.0, 3700.02, 2194.33);
    (49600, "-", "toom_sqr", 2.0, 3719.65, 1436.07);
    (99200, "-", "toom_mul", 2.0, 14781.32, 6747.64);
    (99200, "-", "toom_sqr", 2.0, 14855.70, 4566.67)
  ]

(* The floor a row's speedup must reach: the largest gate that applies.
   ctx_mul shares the one-shot multiply-and-divide path with naive Modarith
   (the Barrett route measured 0.57-0.82x here and is kept for pow chains
   only), so mul rows must sit at parity: >= 1.0 up to timer noise plus the
   context's reduce pre-checks, which at 256 bits are a few percent of a
   sub-microsecond multiply. The margin is looser at the smoke sizes (96/192
   bits, below any protocol prime), where the pre-checks are a double-digit
   share of a ~0.35 us product. Smoke sizes have no committed 26-bit
   numbers; there odd pow needs 4.5x naive, the 26-bit engine's own
   naive/legacy ratio measured at 96/192 bits (4.5-5.0, ctx reading
   14-19x). *)
let floor_of ~smoke r =
  let mul = if r.op <> "mul" then 0. else if smoke then 0.7 else 0.85 in
  let pow = if smoke && r.op = "pow" && r.parity = "odd" then 4.5 else 0. in
  List.fold_left
    (fun acc (bits, parity, op, old_floor, naive_us, legacy_us) ->
      if (not smoke) && bits = r.bits && parity = r.parity && op = r.op then
        Float.max acc (old_floor *. naive_us /. legacy_us)
      else acc)
    (Float.max mul pow) legacy_gates

let json_of_row r =
  Printf.sprintf
    "    {\"bits\": %d, \"parity\": \"%s\", \"op\": \"%s\", \"reps\": %d, \"naive_us\": %.2f, \"ctx_us\": %.2f, \"speedup\": %.2f}"
    r.bits r.parity r.op r.reps r.naive_us r.ctx_us r.speedup

let () =
  let smoke = ref false and out = ref "BENCH_modarith.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; parse rest
    | "-o" :: path :: rest -> out := path; parse rest
    | arg :: _ -> Printf.eprintf "unknown argument %s\n" arg; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* mul reps stay high even in smoke mode: a single product is well under
     a microsecond at these sizes, so 50 reps is a ~20 us window — pure
     timer noise against the parity floor below. 2000 reps still costs
     only milliseconds. *)
  let sizes, pow_reps_of, mul_reps =
    if !smoke then ([ 96; 192 ], (fun _ -> 2), 2000)
    else ([ 256; 512; 1024; 2048 ], (fun bits -> max 3 (20480 / bits)), 2000)
  in
  let rng = Rng.create 0x6d0d in
  let rows =
    List.concat_map
      (fun bits ->
        let pow_reps = pow_reps_of bits in
        bench_modulus ~pow_reps ~mul_reps rng ~bits ~odd:true
        @ bench_modulus ~pow_reps ~mul_reps rng ~bits ~odd:false)
      sizes
  in
  (* Toom rows only in full mode: the schoolbook oracle at these sizes is
     tens of milliseconds per product, too slow for @runtest-fast. *)
  let rows =
    if !smoke then rows
    else rows @ bench_toom rng ~limbs:800 ~reps:3 @ bench_toom rng ~limbs:1600 ~reps:3
  in
  Printf.printf "%6s %6s %8s | %12s %12s | %8s %7s\n" "bits" "parity" "op" "naive (us)"
    "ctx (us)" "speedup" "floor";
  List.iter
    (fun r ->
      let floor = floor_of ~smoke:!smoke r in
      Printf.printf "%6d %6s %8s | %12.2f %12.2f | %7.2fx %7s\n" r.bits r.parity r.op
        r.naive_us r.ctx_us r.speedup
        (if floor > 0. then Printf.sprintf "%.2fx" floor else "-"))
    rows;
  let failed = List.filter (fun r -> r.speedup < floor_of ~smoke:!smoke r) rows in
  List.iter
    (fun r ->
      Printf.eprintf "FAIL: %s %s at %d bits is %.2fx naive (floor %.2f)\n" r.parity r.op r.bits
        r.speedup (floor_of ~smoke:!smoke r))
    failed;
  if failed <> [] then exit 1;
  let oc = open_out !out in
  Printf.fprintf oc "{\n  \"schema_version\": 2,\n  \"mode\": \"%s\",\n  \"results\": [\n%s\n  ]\n}\n"
    (if !smoke then "smoke" else "full")
    (String.concat ",\n" (List.map json_of_row rows));
  close_out oc;
  Printf.printf "\nwrote %s\n" !out
