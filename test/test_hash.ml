(* Tests for the hash substrate: Theorem 3.2's linear family (linearity,
   collision bound, row decomposition) over both carriers, and the eps-API
   hash of Section 4 (aggregation correctness, uniform marginals, pairwise
   collision bound). *)

open Ids_hash
module Bitset = Ids_graph.Bitset
module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm
module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng

let qtest = QCheck_alcotest.to_alcotest

let p_int = 10007
let f_int = Field.int_field p_int

let f_nat =
  (* A 127-bit Mersenne prime: big enough to exercise the Nat carrier. *)
  Field.nat_field (Nat.of_string "170141183460469231731687303715884105727")

(* --- field records ----------------------------------------------------------- *)

let test_int_field_ops () =
  Alcotest.(check int) "add wraps" 1 (f_int.Field.add 10000 8);
  Alcotest.(check int) "sub wraps" (p_int - 1) (f_int.Field.sub 0 1);
  Alcotest.(check int) "of_int negative" (p_int - 3) (f_int.Field.of_int (-3));
  Alcotest.(check int) "2^10 mod 97" 54 ((Field.int_field 97).Field.pow_int 2 10)

(* int62_field: same contract as int_field with the 2^31 product cap lifted
   by the widening C mulmod. Exercised at the largest prime below 2^62,
   where every product overflows a native int. *)
let p62 = 4611686018427387847 (* 2^62 - 57 *)
let f62 = Field.int62_field p62

let test_int62_field_ops () =
  Alcotest.(check int) "(p-1)^2 = 1" 1 (f62.Field.mul (p62 - 1) (p62 - 1));
  Alcotest.(check int) "add wraps" (p62 - 2) (f62.Field.add (p62 - 1) (p62 - 1));
  Alcotest.(check int) "sub wraps" (p62 - 1) (f62.Field.sub 0 1);
  Alcotest.(check int) "of_int negative" (p62 - 3) (f62.Field.of_int (-3));
  Alcotest.(check int) "2^62 mod (2^62-57)" 57 (f62.Field.pow_int 2 62);
  (* Fermat: a^(p-1) = 1 via pow_int's square-and-multiply over 62 bits.
     p - 1 fits the native exponent argument exactly. *)
  Alcotest.(check int) "Fermat a^(p-1) = 1" 1 (f62.Field.pow_int 1234567891011 (p62 - 1));
  (* At this modulus ((k mod p) + p) overflows max_int for every
     k mod p > 56, so reduction must not take that route. Each value below
     is checked against the multiplication kernel or exact arithmetic. *)
  let big = p62 - 12345 in
  Alcotest.(check int) "pow_int big^2 = mul" (f62.Field.mul big big) (f62.Field.pow_int big 2);
  Alcotest.(check int) "pow_int big^3 = mul" (f62.Field.mul big (f62.Field.mul big big)) (f62.Field.pow_int big 3);
  Alcotest.(check int) "pow_int (-1)^2" 1 (f62.Field.pow_int (-1) 2);
  Alcotest.(check int) "of_int 57" 57 (f62.Field.of_int 57);
  Alcotest.(check int) "of_int max_int" 56 (f62.Field.of_int max_int);
  Alcotest.(check int) "of_int min_int" (p62 - 57) (f62.Field.of_int min_int);
  (* Agreement with int_field where both are defined. *)
  let f_a = Field.int_field 10007 and f_b = Field.int62_field 10007 in
  for a = 9990 to 10006 do
    for b = 9990 to 10006 do
      Alcotest.(check int) "mul agrees" (f_a.Field.mul a b) (f_b.Field.mul a b);
      Alcotest.(check int) "add agrees" (f_a.Field.add a b) (f_b.Field.add a b);
      Alcotest.(check int) "sub agrees" (f_a.Field.sub a b) (f_b.Field.sub a b)
    done
  done

let test_int62_field_random_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let x = f62.Field.random rng in
    Alcotest.(check bool) "in range" true (0 <= x && x < p62)
  done

let test_int_field_random_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 500 do
    let x = f_int.Field.random rng in
    Alcotest.(check bool) "in range" true (x >= 0 && x < p_int)
  done

let test_field_rejects_bad_modulus () =
  Alcotest.check_raises "too big" (Invalid_argument "Field.int_field: modulus out of native-safe range")
    (fun () -> ignore (Field.int_field (1 lsl 40)))

let test_nat_field_bits () =
  Alcotest.(check int) "127-bit prime" 127 f_nat.Field.bits

(* --- linear family ------------------------------------------------------------ *)

let random_set rng n =
  let s = Bitset.create n in
  for w = 0 to n - 1 do
    if Rng.bool rng then Bitset.add s w
  done;
  s

let test_linearity_int () =
  (* h_a over disjoint row sums: hashing a matrix row-by-row equals hashing
     the whole matrix, which is exactly the linearity Protocol 1 exploits. *)
  let rng = Rng.create 11 in
  let n = 9 in
  for _ = 1 to 50 do
    let a = f_int.Field.random rng in
    let rows = List.init n (fun v -> (v, random_set rng n)) in
    let whole = Linear.matrix_hash f_int a ~n rows in
    let parts =
      List.fold_left (fun acc (v, s) -> f_int.Field.add acc (Linear.row_hash f_int a ~n ~row:v s)) 0 rows
    in
    Alcotest.(check int) "sum of row hashes" whole parts
  done

let test_row_decomposition () =
  (* h_a([v, r]) = a^(v n) * P(r; a): the factorization every node uses. *)
  let rng = Rng.create 12 in
  let n = 7 in
  for _ = 1 to 50 do
    let a = f_int.Field.random rng in
    let v = Rng.int rng n in
    let s = random_set rng n in
    Alcotest.(check int) "factorized"
      (f_int.Field.mul (f_int.Field.pow_int a (v * n)) (Linear.row_poly f_int a s))
      (Linear.row_hash f_int a ~n ~row:v s)
  done

let test_graph_hash_automorphism_invariance () =
  (* For an automorphism rho, the permuted matrix equals the original, so
     the hashes agree at every index — the completeness side of Protocol 1. *)
  let g = Graph.petersen () in
  let rho = Option.get (Ids_graph.Iso.find_nontrivial_automorphism g) in
  let rng = Rng.create 13 in
  for _ = 1 to 50 do
    let a = f_int.Field.random rng in
    Alcotest.(check int) "hash equal under automorphism" (Linear.graph_hash f_int a g)
      (Linear.permuted_graph_hash f_int a g rho)
  done

let test_collision_rate_within_bound () =
  (* Empirical collision frequency for a non-automorphism must respect the
     m/p bound of Theorem 3.2 (soundness side). *)
  let rng = Rng.create 14 in
  let g = Ids_graph.Family.random_asymmetric rng 8 in
  let rho = Perm.random_nonidentity rng 8 in
  let trials = 4000 in
  let collisions = ref 0 in
  for _ = 1 to trials do
    let a = f_int.Field.random rng in
    if Linear.graph_hash f_int a g = Linear.permuted_graph_hash f_int a g rho then incr collisions
  done;
  let rate = float_of_int !collisions /. float_of_int trials in
  let bound = Linear.collision_bound ~n:8 ~p:p_int in
  (* Allow generous sampling slack above the analytical bound. *)
  Alcotest.(check bool)
    (Printf.sprintf "rate %.4f within 3x bound %.4f + slack" rate bound)
    true
    (rate <= (3. *. bound) +. 0.02)

let test_powers_consistency () =
  let rng = Rng.create 15 in
  let g = Graph.random_gnp rng 8 0.5 in
  let rho = Perm.random rng 8 in
  for _ = 1 to 20 do
    let a = f_int.Field.random rng in
    let tabs = Linear.row_tables f_int a ~n:8 in
    Alcotest.(check int) "graph hash" (Linear.graph_hash f_int a g) (Linear.graph_hash_tables f_int tabs g);
    Alcotest.(check int) "permuted hash"
      (Linear.permuted_graph_hash f_int a g rho)
      (Linear.permuted_graph_hash_tables f_int tabs g rho)
  done

let nat_check = Alcotest.testable Nat.pp Nat.equal

let test_linearity_nat () =
  let rng = Rng.create 16 in
  let n = 6 in
  for _ = 1 to 10 do
    let a = f_nat.Field.random rng in
    let rows = List.init n (fun v -> (v, random_set rng n)) in
    let whole = Linear.matrix_hash f_nat a ~n rows in
    let parts =
      List.fold_left
        (fun acc (v, s) -> f_nat.Field.add acc (Linear.row_hash f_nat a ~n ~row:v s))
        Nat.zero rows
    in
    Alcotest.check nat_check "sum of row hashes (nat)" whole parts
  done

let test_nat_automorphism_invariance () =
  let g = Graph.cycle 8 in
  let rho = Option.get (Ids_graph.Iso.find_nontrivial_automorphism g) in
  let rng = Rng.create 17 in
  for _ = 1 to 10 do
    let a = f_nat.Field.random rng in
    Alcotest.check nat_check "nat hash invariant" (Linear.graph_hash f_nat a g)
      (Linear.permuted_graph_hash f_nat a g rho)
  done

(* --- API hash ------------------------------------------------------------------ *)

let q_api = 2903
let f_api = Field.int_field q_api

let test_api_aggregation_matches_central () =
  (* Summing per-row terms up any order and finalizing equals the central
     hash — the property the GNI spanning-tree aggregation relies on. *)
  let rng = Rng.create 18 in
  for _ = 1 to 30 do
    let g = Graph.random_gnp rng 7 0.5 in
    let spec = Api.random_spec f_api ~k:3 rng in
    let z = ref (Api.zero_term f_api ~k:3) in
    (* Deliberately sum rows in a scrambled order. *)
    let order = Array.init 7 Fun.id in
    Rng.shuffle rng order;
    Array.iter
      (fun v -> z := Api.combine f_api !z (Api.row_term f_api spec ~n:7 ~row:v (Graph.closed_neighborhood g v)))
      order;
    Alcotest.(check int) "aggregated = central" (Api.hash_graph f_api spec g) (Api.finalize f_api spec !z)
  done

let test_api_marginal_uniform () =
  (* Property (2) of eps-API: Pr(h(x) = y) = 1/q exactly. Statistically:
     chi-square-ish check on a coarse bucketing. *)
  let rng = Rng.create 19 in
  let g = Graph.petersen () in
  let trials = 30_000 in
  let buckets = 10 in
  let counts = Array.make buckets 0 in
  for _ = 1 to trials do
    let spec = Api.random_spec f_api ~k:3 rng in
    let y = Api.hash_graph f_api spec g in
    counts.(y * buckets / q_api) <- counts.(y * buckets / q_api) + 1
  done;
  let expected = float_of_int trials /. float_of_int buckets in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d count %d near %.0f" i c expected)
        true
        (Float.abs (float_of_int c -. expected) < expected *. 0.1))
    counts

let test_api_pairwise_collision_bound () =
  (* Property (1): for two distinct fixed graphs, joint collisions onto a
     common target should happen with probability ~ (1+eps)/q^2. Testing the
     joint event directly needs ~q^2 samples, so we test the implied
     distinctness statement: Pr(h(x1) = h(x2)) <= (1+eps)/q for x1 <> x2. *)
  let rng = Rng.create 20 in
  let g1 = Graph.petersen () in
  let g2 = Graph.cycle 10 in
  let trials = 40_000 in
  let collisions = ref 0 in
  for _ = 1 to trials do
    let spec = Api.random_spec f_api ~k:3 rng in
    if Api.hash_graph f_api spec g1 = Api.hash_graph f_api spec g2 then incr collisions
  done;
  let rate = float_of_int !collisions /. float_of_int trials in
  let eps = Api.epsilon f_api ~n:10 ~k:3 ~q:(float_of_int q_api) in
  let bound = (1. +. eps) /. float_of_int q_api in
  Alcotest.(check bool)
    (Printf.sprintf "collision rate %.5f vs bound %.5f" rate bound)
    true
    (rate <= (3. *. bound) +. 0.003)

let test_api_spec_bits () =
  Alcotest.(check int) "2k+1 elements" (7 * f_api.Field.bits) (Api.spec_bits f_api ~k:3)

let prop_api_combine_commutative =
  QCheck.Test.make ~name:"api combine commutative+associative" ~count:100
    (QCheck.make QCheck.Gen.(triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
    (fun (a, b, c) ->
      let f = f_api in
      let va = [| a mod q_api; b mod q_api |]
      and vb = [| b mod q_api; c mod q_api |]
      and vc = [| c mod q_api; a mod q_api |] in
      Api.combine f va vb = Api.combine f vb va
      && Api.combine f (Api.combine f va vb) vc = Api.combine f va (Api.combine f vb vc))

let suite =
  [ ( "field",
      [ Alcotest.test_case "int field ops" `Quick test_int_field_ops;
        Alcotest.test_case "int62 field ops" `Quick test_int62_field_ops;
        Alcotest.test_case "int62 random in range" `Quick test_int62_field_random_range;
        Alcotest.test_case "random in range" `Quick test_int_field_random_range;
        Alcotest.test_case "rejects oversized modulus" `Quick test_field_rejects_bad_modulus;
        Alcotest.test_case "nat field bits" `Quick test_nat_field_bits
      ] );
    ( "linear",
      [ Alcotest.test_case "linearity (int)" `Quick test_linearity_int;
        Alcotest.test_case "row decomposition" `Quick test_row_decomposition;
        Alcotest.test_case "automorphism invariance" `Quick test_graph_hash_automorphism_invariance;
        Alcotest.test_case "collision rate within bound" `Quick test_collision_rate_within_bound;
        Alcotest.test_case "power-table consistency" `Quick test_powers_consistency;
        Alcotest.test_case "linearity (nat)" `Quick test_linearity_nat;
        Alcotest.test_case "automorphism invariance (nat)" `Quick test_nat_automorphism_invariance
      ] );
    ( "api",
      [ Alcotest.test_case "aggregation = central hash" `Quick test_api_aggregation_matches_central;
        Alcotest.test_case "marginal uniform" `Slow test_api_marginal_uniform;
        Alcotest.test_case "pairwise collision bound" `Slow test_api_pairwise_collision_bound;
        Alcotest.test_case "spec bits" `Quick test_api_spec_bits;
        qtest prop_api_combine_commutative
      ] )
  ]
