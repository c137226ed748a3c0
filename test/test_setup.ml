(* Setup-path pins and kernel oracles.

   The sieve-gated prime pipeline promises bit-identity with the reference:
   same seed => same prime, and the rng is left at the same position. The
   pins below were captured before the pipeline landed, so they also guard
   against accidental re-baselining. The protocol estimates are pinned
   across worker-domain counts and with tracing on, since the memo layer
   shards per domain and the Obs layer must not perturb control flow. The
   qcheck blocks are oracle tests for the new Nat kernels (Karatsuba,
   squaring, scalar multiply, native remainder) and the SWAR popcount. *)

open Ids_bignum
module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Iso = Ids_graph.Iso
module Family = Ids_graph.Family
module Spanning_tree = Ids_graph.Spanning_tree
module Obs = Ids_obs.Obs
module Precomp = Ids_proof.Precomp
module Dsym = Ids_proof.Dsym
module Sym_dam = Ids_proof.Sym_dam
module Sym_dmam = Ids_proof.Sym_dmam
module Gni = Ids_proof.Gni
module Gni_full = Ids_proof.Gni_full
module Gni_induced = Ids_proof.Gni_induced
module Stats = Ids_proof.Stats

let nat = Alcotest.testable Nat.pp Nat.equal

(* --- same seed => same prime, same rng position -------------------------- *)

(* (range name, lo, hi, seed, prime, next 30 rng bits), captured pre-PR. *)
let int_prime_pins =
  let cube s = s * s * s in
  [ ("dsym_s17", 10 * cube 17, 100 * cube 17, 11, 182417, 19943435);
    ("dsym_s17", 10 * cube 17, 100 * cube 17, 12, 122557, 287280638);
    ("dsym_s17", 10 * cube 17, 100 * cube 17, 13, 429701, 656635470);
    ("dsym_s53", 10 * cube 53, 100 * cube 53, 11, 6794471, 677682038);
    ("dsym_s53", 10 * cube 53, 100 * cube 53, 12, 6807683, 287280638);
    ("dsym_s53", 10 * cube 53, 100 * cube 53, 13, 14385593, 996287226);
    ("sym_dmam_n16", 10 * cube 16, 100 * cube 16, 11, 126851, 677682038);
    ("sym_dmam_n16", 10 * cube 16, 100 * cube 16, 12, 242371, 822419056);
    ("sym_dmam_n16", 10 * cube 16, 100 * cube 16, 13, 213287, 994832231);
    ("gni_f720", 4 * 720, 8 * 720, 11, 3557, 592638584);
    ("gni_f720", 4 * 720, 8 * 720, 12, 5651, 672844683);
    ("gni_f720", 4 * 720, 8 * 720, 13, 4649, 1037818444);
    ("gni_f40320", 4 * 40320, 8 * 40320, 11, 280751, 556256695);
    ("gni_f40320", 4 * 40320, 8 * 40320, 12, 313087, 279657015);
    ("gni_f40320", 4 * 40320, 8 * 40320, 13, 216791, 656982448);
    ("rpls_n6", 4 * 1296, 8 * 1296, 11, 7333, 685092748);
    ("rpls_n6", 4 * 1296, 8 * 1296, 12, 10267, 545572224);
    ("rpls_n6", 4 * 1296, 8 * 1296, 13, 7877, 679520393)
  ]

let test_int_prime_pins () =
  List.iter
    (fun (name, lo, hi, seed, want_p, want_next) ->
      let tag = Printf.sprintf "%s seed=%d" name seed in
      let rng = Rng.create seed in
      let p = Prime.random_prime_in_int rng lo hi in
      Alcotest.(check int) (tag ^ " prime") want_p p;
      Alcotest.(check int) (tag ^ " rng position") want_next (Rng.bits rng 30))
    int_prime_pins

let test_int_prime_matches_reference () =
  List.iter
    (fun (name, lo, hi, seed, _, _) ->
      let tag = Printf.sprintf "%s seed=%d" name seed in
      let rng = Rng.create seed in
      let p = Prime.random_prime_in_int rng lo hi in
      let rng_ref = Rng.create seed in
      let p_ref =
        Nat.to_int (Prime.random_prime_in_reference rng_ref (Nat.of_int lo) (Nat.of_int hi))
      in
      Alcotest.(check int) (tag ^ " prime vs reference") p_ref p;
      Alcotest.(check int) (tag ^ " rng position vs reference") (Rng.bits rng_ref 30) (Rng.bits rng 30))
    int_prime_pins

(* (n, seed, prime, next 30 rng bits) on the Protocol-2 interval
   [10 n^(n+2), 100 n^(n+2)], captured pre-PR. *)
let nat_prime_pins =
  [ (6, 11, "97151881", 126217305);
    (6, 12, "123157379", 1012663082);
    (10, 11, "67070304383213", 510545832);
    (10, 12, "34031066245609", 852669796);
    (24, 11, "74940686285593980248102439297151106557", 774158779);
    (24, 12, "39020342259718080556533818959604679539", 448157000)
  ]

let sym_dam_interval n =
  let bound = Nat.pow (Nat.of_int n) (n + 2) in
  (Nat.mul_int bound 10, Nat.mul_int bound 100)

let test_nat_prime_pins () =
  List.iter
    (fun (n, seed, want_p, want_next) ->
      let tag = Printf.sprintf "sym_dam n=%d seed=%d" n seed in
      let lo, hi = sym_dam_interval n in
      let rng = Rng.create seed in
      let p = Prime.random_prime_in rng lo hi in
      Alcotest.(check string) (tag ^ " prime") want_p (Nat.to_string p);
      Alcotest.(check int) (tag ^ " rng position") want_next (Rng.bits rng 30))
    nat_prime_pins

let test_nat_prime_matches_reference () =
  List.iter
    (fun (n, seed, _, _) ->
      let tag = Printf.sprintf "sym_dam n=%d seed=%d" n seed in
      let lo, hi = sym_dam_interval n in
      let rng = Rng.create seed in
      let p = Prime.random_prime_in rng lo hi in
      let rng_ref = Rng.create seed in
      let p_ref = Prime.random_prime_in_reference rng_ref lo hi in
      Alcotest.check nat (tag ^ " prime vs reference") p_ref p;
      Alcotest.(check int) (tag ^ " rng position vs reference") (Rng.bits rng_ref 30) (Rng.bits rng 30))
    nat_prime_pins

(* --- estimate pins: domain counts and tracing must not move them --------- *)

let estimate_configs () =
  let dsym_inst = Dsym.make_instance ~n:6 ~r:2 (Family.dsym_graph (Graph.cycle 6) 2) in
  let gni_yes = Gni.yes_instance (Rng.create 7) 6 in
  let gni_full_yes = Gni_full.yes_instance (Rng.create 7) 6 in
  let gni_induced_yes = Gni_induced.yes_instance (Rng.create 7) 12 in
  [ ("dsym_yes_n6", 24, 24, fun seed -> Dsym.run ~seed dsym_inst Dsym.honest);
    ("sym_dam_c8", 8, 8, fun seed -> Sym_dam.run ~seed (Graph.cycle 8) Sym_dam.honest);
    ("sym_dmam_c8", 16, 16, fun seed -> Sym_dmam.run ~seed (Graph.cycle 8) Sym_dmam.honest);
    ("gni_yes6_single", 12, 1, fun seed -> Gni.run_single ~seed gni_yes Gni.honest);
    ("gni_full_yes6_single", 6, 2, fun seed -> Gni_full.run_single ~seed gni_full_yes Gni_full.honest);
    ("gni_induced_yes12_single", 6, 2, fun seed -> Gni_induced.run_single ~seed gni_induced_yes Gni_induced.honest)
  ]

let test_estimates_across_domains () =
  List.iter
    (fun (name, trials, want_accepts, run) ->
      List.iter
        (fun domains ->
          let e = Stats.acceptance_ci ~domains ~trials run in
          Alcotest.(check int)
            (Printf.sprintf "%s accepts (domains=%d)" name domains)
            want_accepts e.Ids_engine.Engine.accepts)
        [ 1; 2; 4 ])
    (estimate_configs ())

let test_estimates_with_tracing () =
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun (name, trials, want_accepts, run) ->
          Obs.set_enabled true;
          let traced = Stats.acceptance_ci ~domains:2 ~trials run in
          Obs.set_enabled false;
          let quiet = Stats.acceptance_ci ~domains:2 ~trials run in
          Alcotest.(check int) (name ^ " accepts traced") want_accepts traced.Ids_engine.Engine.accepts;
          Alcotest.(check int) (name ^ " accepts untraced") want_accepts quiet.Ids_engine.Engine.accepts)
        (estimate_configs ()))

(* Regression: the honest GNI provers force the instance's candidate set
   lazily, and OCaml 5's Lazy.force is not domain-safe — two engine workers
   forcing a fresh set at once made one raise CamlinternalLazy.Undefined.
   The estimate pins above miss it because their domains = 1 pass forces
   the set first; here every estimate starts from a fresh instance, with
   two engine chunks so both workers start at once. *)
let test_fresh_instance_across_domains () =
  let fresh_runs =
    [ ("gni", fun () ->
        let inst = Gni.yes_instance (Rng.create 7) 6 in
        fun seed -> Gni.run_single ~seed inst Gni.honest);
      ("gni_full", fun () ->
        let inst = Gni_full.yes_instance (Rng.create 7) 6 in
        fun seed -> Gni_full.run_single ~seed inst Gni_full.honest);
      ("gni_induced", fun () ->
        let inst = Gni_induced.yes_instance (Rng.create 7) 8 in
        fun seed -> Gni_induced.run_single ~seed inst Gni_induced.honest)
    ]
  in
  List.iter
    (fun (name, fresh) ->
      let accepts domains = (Stats.acceptance_ci ~domains ~trials:64 (fresh ())).Ids_engine.Engine.accepts in
      let two = accepts 2 in
      Alcotest.(check int) (name ^ " fresh instance, domains 2 = domains 1") (accepts 1) two)
    fresh_runs

(* --- memo layer ---------------------------------------------------------- *)

let check_tree tag (want : Spanning_tree.t) (got : Spanning_tree.t) =
  Alcotest.(check int) (tag ^ " root") want.Spanning_tree.root got.Spanning_tree.root;
  Alcotest.(check (array int)) (tag ^ " parent") want.Spanning_tree.parent got.Spanning_tree.parent;
  Alcotest.(check (array int)) (tag ^ " dist") want.Spanning_tree.dist got.Spanning_tree.dist

let test_memo_tree () =
  let g = Graph.petersen () in
  let cold = Precomp.tree g 3 in
  check_tree "cold vs direct" (Spanning_tree.bfs g 3) cold;
  let warm = Precomp.tree g 3 in
  Alcotest.(check bool) "warm hit is the cached value" true (cold == warm);
  (* A different root is a different key. *)
  check_tree "other root" (Spanning_tree.bfs g 0) (Precomp.tree g 0);
  (* Mutation bumps the version: the stale tree must not be served. *)
  let g' = Graph.copy g in
  let before = Precomp.tree g' 0 in
  Graph.add_edge g' 0 2;
  let after = Precomp.tree g' 0 in
  Alcotest.(check bool) "mutation invalidates" false (before == after);
  check_tree "after mutation" (Spanning_tree.bfs g' 0) after;
  (* A copy has a fresh uid: it never aliases the original's entries. *)
  let h = Graph.copy g in
  Alcotest.(check bool) "copy gets fresh uid" false (Graph.uid h = Graph.uid g);
  check_tree "copy" (Spanning_tree.bfs h 0) (Precomp.tree h 0)

let test_memo_values () =
  Alcotest.(check bool) "dsym sigma" true
    (Perm.equal (Precomp.dsym_sigma ~n:5 ~r:2) (Family.dsym_sigma ~n:5 ~r:2));
  Alcotest.(check int) "factorial 8" 40320 (Precomp.factorial 8);
  Alcotest.(check int) "factorial 0" 1 (Precomp.factorial 0);
  Alcotest.check nat "power bound 10^12" (Nat.pow (Nat.of_int 10) 12) (Precomp.power_bound 10 12);
  let g = Graph.cycle 6 in
  let direct = Iso.find_nontrivial_automorphism g in
  let memo = Precomp.nontrivial_automorphism g in
  Alcotest.(check bool) "automorphism" true
    (match (direct, memo) with
    | None, None -> true
    | Some a, Some b -> Perm.equal a b
    | _ -> false)

(* --- Nat kernel oracles --------------------------------------------------- *)

(* A pseudo-random Nat with exactly [limbs] limbs (top limb nonzero), from a
   seed, via the limb constructor — independent of the multipliers under
   test. *)
let nat_of_seed ~limbs seed =
  let rng = Rng.create (0x9e3779b9 lxor seed) in
  Nat.of_limbs
    (Array.init limbs (fun i ->
         let w = Rng.bits rng Nat.base_bits in
         if i = limbs - 1 then w lor 1 else w))

let boundary_sizes = [ 1; 2; 3; 31; 32; 33; 63; 64; 511; 512; 513 ]

let test_mul_threshold_boundaries () =
  (* Cross the Karatsuba threshold (32 limbs) and the scanning-squarer cap
     (512 limbs) exactly, against the schoolbook oracle. *)
  List.iter
    (fun la ->
      List.iter
        (fun lb ->
          let a = nat_of_seed ~limbs:la 1 and b = nat_of_seed ~limbs:lb 2 in
          Alcotest.check nat
            (Printf.sprintf "mul %dx%d limbs" la lb)
            (Nat.mul_schoolbook a b) (Nat.mul a b))
        [ 1; 31; 32; 33; 512 ])
    boundary_sizes

let test_sqr_boundaries () =
  List.iter
    (fun limbs ->
      let a = nat_of_seed ~limbs 3 in
      let a' = Nat.of_limbs (Nat.to_limbs a) in
      Alcotest.check nat
        (Printf.sprintf "sqr %d limbs" limbs)
        (Nat.mul_schoolbook a a) (Nat.sqr a);
      (* Physically equal arguments must route through the squarer. *)
      Alcotest.check nat
        (Printf.sprintf "mul x x %d limbs" limbs)
        (Nat.mul_schoolbook a a') (Nat.mul a a))
    boundary_sizes

let qtest t = QCheck_alcotest.to_alcotest t

let arb_sized_pair =
  let gen =
    QCheck.Gen.(
      let* la = int_range 1 40 in
      let* lb = int_range 1 40 in
      let* sa = int_bound 1_000_000 in
      let* sb = int_bound 1_000_000 in
      return (la, lb, sa, sb))
  in
  QCheck.make
    ~print:(fun (la, lb, sa, sb) -> Printf.sprintf "limbs=(%d,%d) seeds=(%d,%d)" la lb sa sb)
    gen

(* Both product properties also take decimal operands of 1-330 digits (1-18
   limbs), built by Nat.of_string rather than limb by limb, so values with
   the decimal parser's limb patterns reach the kernels too. *)
let arb_decimal = Test_bignum.arb_huge_string

let prop_mul_matches_schoolbook =
  QCheck.Test.make ~name:"Karatsuba mul matches schoolbook" ~count:300
    (QCheck.pair arb_sized_pair (QCheck.pair arb_decimal arb_decimal))
    (fun ((la, lb, sa, sb), (da, db)) ->
      let a = nat_of_seed ~limbs:la sa and b = nat_of_seed ~limbs:lb sb in
      let c = Nat.of_string da and d = Nat.of_string db in
      Nat.equal (Nat.mul a b) (Nat.mul_schoolbook a b)
      && Nat.equal (Nat.mul c d) (Nat.mul_schoolbook c d))

let prop_sqr_matches_mul =
  QCheck.Test.make ~name:"sqr matches schoolbook self-product" ~count:300
    (QCheck.pair arb_sized_pair arb_decimal)
    (fun ((la, _, sa, _), da) ->
      let a = nat_of_seed ~limbs:la sa and c = Nat.of_string da in
      Nat.equal (Nat.sqr a) (Nat.mul_schoolbook a a) && Nat.equal (Nat.sqr c) (Nat.mul_schoolbook c c))

let prop_mul_int_matches_mul =
  QCheck.Test.make ~name:"mul_int matches mul of_int" ~count:300
    (QCheck.pair (QCheck.make (QCheck.gen arb_sized_pair)) (QCheck.int_range 0 (1 lsl 35)))
    (fun ((la, _, sa, _), k) ->
      let a = nat_of_seed ~limbs:la sa in
      Nat.equal (Nat.mul_int a k) (Nat.mul a (Nat.of_int k)))

let prop_rem_int_matches_rem =
  QCheck.Test.make ~name:"rem_int matches divmod remainder" ~count:300
    (QCheck.pair (QCheck.make (QCheck.gen arb_sized_pair)) (QCheck.int_range 1 ((1 lsl 36) - 1)))
    (fun ((la, _, sa, _), d) ->
      let a = nat_of_seed ~limbs:la sa in
      Nat.rem_int a d = Nat.to_int (Nat.rem a (Nat.of_int d)))

let test_mul_int_edges () =
  let a = nat_of_seed ~limbs:7 9 in
  Alcotest.check nat "k = 0" Nat.zero (Nat.mul_int a 0);
  Alcotest.check nat "k = 1" a (Nat.mul_int a 1);
  (* Above the direct-sweep cap the implementation must fall back. *)
  let big = (1 lsl 34) + 12345 in
  Alcotest.check nat "k above sweep cap" (Nat.mul a (Nat.of_int big)) (Nat.mul_int a big);
  Alcotest.check_raises "negative scalar" (Invalid_argument "Nat.mul_int: negative") (fun () ->
      ignore (Nat.mul_int a (-1)))

let test_rem_int_edges () =
  let a = nat_of_seed ~limbs:5 4 in
  Alcotest.(check int) "d = 1" 0 (Nat.rem_int a 1);
  Alcotest.check_raises "d = 0" (Invalid_argument "Nat.rem_int: divisor out of range") (fun () ->
      ignore (Nat.rem_int a 0));
  Alcotest.check_raises "d too large" (Invalid_argument "Nat.rem_int: divisor out of range")
    (fun () -> ignore (Nat.rem_int a (1 lsl 36)))

(* --- SWAR popcount -------------------------------------------------------- *)

let prop_popcount_matches_naive =
  QCheck.Test.make ~name:"SWAR cardinal matches membership count" ~count:300
    (QCheck.pair (QCheck.int_range 1 300) (QCheck.int_bound 100000))
    (fun (capacity, seed) ->
      let rng = Rng.create seed in
      let t = Bitset.create capacity in
      for i = 0 to capacity - 1 do
        if Rng.bits rng 1 = 1 then Bitset.add t i
      done;
      let naive = ref 0 in
      for i = 0 to capacity - 1 do
        if Bitset.mem t i then incr naive
      done;
      Bitset.cardinal t = !naive)

let test_popcount_edges () =
  let full = Bitset.create 124 in
  for i = 0 to 123 do
    Bitset.add full i
  done;
  Alcotest.(check int) "all 124 bits over two full words" 124 (Bitset.cardinal full);
  Alcotest.(check int) "empty" 0 (Bitset.cardinal (Bitset.create 124))

let suite =
  [ ( "setup:prime-pins",
      [ Alcotest.test_case "int ranges pinned" `Quick test_int_prime_pins;
        Alcotest.test_case "int ranges match reference" `Quick test_int_prime_matches_reference;
        Alcotest.test_case "nat ranges pinned" `Quick test_nat_prime_pins;
        Alcotest.test_case "nat ranges match reference" `Quick test_nat_prime_matches_reference
      ] );
    ( "setup:estimates",
      [ Alcotest.test_case "pinned across domain counts" `Quick test_estimates_across_domains;
        Alcotest.test_case "pinned with tracing on" `Quick test_estimates_with_tracing;
        Alcotest.test_case "fresh instance across domains" `Quick test_fresh_instance_across_domains
      ] );
    ( "setup:memo",
      [ Alcotest.test_case "tree cache hit/invalidate" `Quick test_memo_tree;
        Alcotest.test_case "memoized values match direct" `Quick test_memo_values
      ] );
    ( "setup:nat-kernels",
      [ Alcotest.test_case "mul threshold boundaries" `Quick test_mul_threshold_boundaries;
        Alcotest.test_case "sqr boundaries" `Quick test_sqr_boundaries;
        Alcotest.test_case "mul_int edges" `Quick test_mul_int_edges;
        Alcotest.test_case "rem_int edges" `Quick test_rem_int_edges;
        qtest prop_mul_matches_schoolbook;
        qtest prop_sqr_matches_mul;
        qtest prop_mul_int_matches_mul;
        qtest prop_rem_int_matches_rem
      ] );
    ( "setup:popcount",
      [ Alcotest.test_case "full and empty words" `Quick test_popcount_edges;
        qtest prop_popcount_matches_naive
      ] )
  ]
