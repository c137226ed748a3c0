(* Tests for the core protocols: completeness and soundness of Protocols 1
   and 2, the DSym protocol, the PLS / LCP baselines, and the GNI protocol —
   i.e. empirical renditions of Theorems 1.1, 1.2, 1.3 and 1.5 plus the
   Definition 2 thresholds. *)

open Ids_proof
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Iso = Ids_graph.Iso
module Perm = Ids_graph.Perm
module Rng = Ids_bignum.Rng


(* Trial budgets honor IDS_TRIALS_SCALE so @runtest-fast can dial them down. *)
let strials n = Ids_engine.Engine.scaled_trials n

let accepted (o : Outcome.t) = o.Outcome.accepted

(* --- Protocol 1 (dMAM) -------------------------------------------------------- *)

let test_dmam_completeness () =
  (* Honest prover on symmetric graphs: Protocol 1 accepts deterministically
     (the honest transcript passes every check for any challenge). *)
  let rng = Rng.create 100 in
  List.iter
    (fun n ->
      let g = Family.random_symmetric rng n in
      for seed = 1 to 10 do
        Alcotest.(check bool) (Printf.sprintf "n=%d seed=%d" n seed) true
          (accepted (Sym_dmam.run ~seed g Sym_dmam.honest))
      done)
    [ 4; 8; 16; 32 ];
  List.iter
    (fun g ->
      Alcotest.(check bool) "classic" true (accepted (Sym_dmam.run ~seed:1 g Sym_dmam.honest)))
    [ Graph.petersen (); Graph.cycle 9; Graph.hypercube 3; Graph.complete 6 ]

let test_dmam_soundness_adversaries () =
  let rng = Rng.create 101 in
  let g = Family.random_asymmetric rng 10 in
  (* Every registered adversary stays under its bound: only random-perm can
     even reach a hash collision; the rest are caught deterministically. *)
  List.iter
    (fun (name, adv) ->
      let max_rate = if name = "random-perm" then 0.1 else 0.0 in
      let est = Stats.acceptance ~trials:(strials 60) (fun seed -> Sym_dmam.run ~seed g adv) in
      Alcotest.(check bool)
        (Printf.sprintf "%s rate %.3f <= %.3f" name est.Stats.rate max_rate)
        true
        (est.Stats.rate <= max_rate))
    Adversary.sym_dmam

let test_dmam_honest_loses_on_asymmetric () =
  (* Even the honest code must fail on NO instances: there is no witness. *)
  let rng = Rng.create 102 in
  let g = Family.random_asymmetric rng 8 in
  let est = Stats.acceptance ~trials:(strials 40) (fun seed -> Sym_dmam.run ~seed g Sym_dmam.honest) in
  Alcotest.(check bool) "honest cannot prove a false statement" true (est.Stats.rate <= 0.1)

let test_dmam_cost_logarithmic () =
  (* O(log n): the per-node bit cost is a small multiple of log2 n. *)
  let rng = Rng.create 103 in
  List.iter
    (fun n ->
      let g = Family.random_symmetric rng n in
      let o = Sym_dmam.run ~seed:5 g Sym_dmam.honest in
      (* Exact shape: 4 vertex ids + 4 field elements with p <= 100 n^3,
         i.e. at most 16 log n + O(1) bits; test with a little headroom. *)
      let log_n = float_of_int (Ids_network.Bits.ceil_log2 n) in
      let bound = (17. *. log_n) +. 35. in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %d bits vs %.0f" n o.Outcome.max_bits_per_node bound)
        true
        (float_of_int o.Outcome.max_bits_per_node <= bound))
    [ 8; 16; 32; 64; 128 ]

let test_dmam_exact_probabilities () =
  let rng = Rng.create 104 in
  (* Automorphism: collision at every index. *)
  let g = Graph.cycle 8 in
  let rho = Option.get (Iso.find_nontrivial_automorphism g) in
  let params = Sym_dmam.params_for ~seed:1 g in
  Alcotest.(check (float 0.0)) "automorphism accepts w.p. 1" 1.0
    (Sym_dmam.acceptance_probability_exact params g rho);
  (* Non-automorphism on an asymmetric graph: below Theorem 3.2's bound. *)
  let a = Family.random_asymmetric rng 8 in
  let pa = Sym_dmam.params_for ~seed:1 a in
  let bound = Ids_hash.Linear.collision_bound ~n:8 ~p:pa.Sym_dmam.p in
  for _ = 1 to 5 do
    let sigma = Perm.random_nonidentity rng 8 in
    let prob = Sym_dmam.acceptance_probability_exact pa a sigma in
    Alcotest.(check bool) (Printf.sprintf "prob %.5f <= %.5f" prob bound) true (prob <= bound)
  done

let test_dmam_best_adversary_below_third () =
  let rng = Rng.create 105 in
  let a = Family.random_asymmetric rng 8 in
  let params = Sym_dmam.params_for ~seed:2 a in
  let bound = Sym_dmam.best_adversary_bound ~sample:10 ~seed:3 params a in
  Alcotest.(check bool) (Printf.sprintf "best adversary %.5f < 1/3" bound) true (bound < 1. /. 3.)

let test_dmam_rejects_tiny () =
  Alcotest.check_raises "n=1" (Invalid_argument "Sym_dmam.run: need at least 2 nodes") (fun () ->
      ignore (Sym_dmam.run ~seed:1 (Graph.make 1) Sym_dmam.honest))

(* --- Protocol 2 (dAM) --------------------------------------------------------- *)

let test_dam_completeness () =
  let rng = Rng.create 110 in
  List.iter
    (fun n ->
      let g = Family.random_symmetric rng n in
      for seed = 1 to 5 do
        Alcotest.(check bool) (Printf.sprintf "n=%d" n) true (accepted (Sym_dam.run ~seed g Sym_dam.honest))
      done)
    [ 4; 8; 12 ]

let test_dam_soundness () =
  let rng = Rng.create 111 in
  let g = Family.random_asymmetric rng 8 in
  List.iter
    (fun (name, adv) ->
      let est = Stats.acceptance ~trials:(strials 25) (fun seed -> Sym_dam.run ~seed g adv) in
      Alcotest.(check bool) (name ^ " blocked") true (est.Stats.rate = 0.0))
    Adversary.sym_dam

let test_dam_cost_n_log_n () =
  (* O(n log n) with a visible n * log n term (the broadcast permutation and
     the long hash index). *)
  let rng = Rng.create 112 in
  List.iter
    (fun n ->
      let g = Family.random_symmetric rng n in
      let o = Sym_dam.run ~seed:3 g Sym_dam.honest in
      let nlogn = float_of_int n *. float_of_int (Ids_network.Bits.ceil_log2 n) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %d bits vs 30 n log n = %.0f" n o.Outcome.max_bits_per_node (30. *. nlogn))
        true
        (float_of_int o.Outcome.max_bits_per_node <= 30. *. nlogn))
    [ 8; 12; 16 ]

let test_dam_field_size_matches_paper () =
  (* p in [10 n^(n+2), 100 n^(n+2)]. *)
  let g = Graph.cycle 10 in
  let params = Sym_dam.params_for ~seed:9 g in
  let lo = Ids_bignum.Nat.mul_int (Ids_bignum.Nat.pow (Ids_bignum.Nat.of_int 10) 12) 10 in
  let hi = Ids_bignum.Nat.mul_int (Ids_bignum.Nat.pow (Ids_bignum.Nat.of_int 10) 12) 100 in
  Alcotest.(check bool) "p >= 10 n^(n+2)" true (Ids_bignum.Nat.compare params.Sym_dam.p lo >= 0);
  Alcotest.(check bool) "p <= 100 n^(n+2)" true (Ids_bignum.Nat.compare params.Sym_dam.p hi <= 0)

(* --- DSym (Section 3.3) -------------------------------------------------------- *)

let test_dsym_completeness () =
  let rng = Rng.create 120 in
  List.iter
    (fun (n, r) ->
      let f = Family.random_asymmetric rng n in
      let inst = Dsym.make_instance ~n ~r (Family.dsym_graph f r) in
      for seed = 1 to 5 do
        Alcotest.(check bool)
          (Printf.sprintf "n=%d r=%d" n r)
          true
          (accepted (Dsym.run ~seed inst Dsym.honest))
      done)
    [ (6, 1); (6, 3); (8, 2); (10, 2) ]

let test_dsym_completeness_with_symmetric_sides () =
  (* DSym membership does not require asymmetric sides. *)
  let inst = Dsym.make_instance ~n:5 ~r:2 (Family.dsym_graph (Graph.cycle 5) 2) in
  Alcotest.(check bool) "cycle sides" true (accepted (Dsym.run ~seed:4 inst Dsym.honest))

let test_dsym_soundness_on_perturbed () =
  let rng = Rng.create 121 in
  let f = Family.random_asymmetric rng 6 in
  let rejected = ref 0 in
  for seed = 1 to 40 do
    let bad = Dsym.make_instance ~n:6 ~r:2 (Family.dsym_perturbed rng f 2) in
    if not (accepted (Dsym.run ~seed bad (List.assoc "consistent" Adversary.dsym))) then incr rejected
  done;
  Alcotest.(check bool) (Printf.sprintf "rejected %d/40" !rejected) true (!rejected >= 38)

let test_dsym_soundness_structural () =
  (* Breaking the path is caught deterministically, without the hash. *)
  let rng = Rng.create 122 in
  let f = Family.random_asymmetric rng 6 in
  let g = Family.dsym_graph f 2 in
  Graph.remove_edge g 12 13;
  (* a path edge: 2n=12 *)
  Graph.add_edge g 12 14;
  (* keep it connected so the tree exists *)
  let inst = Dsym.make_instance ~n:6 ~r:2 g in
  Alcotest.(check bool) "structure violation rejected" false
    (accepted (Dsym.run ~seed:1 inst (List.assoc "consistent" Adversary.dsym)))

let test_dsym_cost_logarithmic () =
  let rng = Rng.create 123 in
  List.iter
    (fun n ->
      let f = Family.random_asymmetric rng n in
      let inst = Dsym.make_instance ~n ~r:2 (Family.dsym_graph f 2) in
      let o = Dsym.run ~seed:2 inst Dsym.honest in
      let size = (2 * n) + 5 in
      let log_n = float_of_int (Ids_network.Bits.ceil_log2 size) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %d bits" n o.Outcome.max_bits_per_node)
        true
        (float_of_int o.Outcome.max_bits_per_node <= (17. *. log_n) +. 35.))
    [ 8; 16; 32; 64 ]

let test_dsym_instance_validation () =
  Alcotest.check_raises "wrong size" (Invalid_argument "Dsym.make_instance: wrong vertex count")
    (fun () -> ignore (Dsym.make_instance ~n:6 ~r:2 (Graph.make 10)))

(* --- PLS / LCP baselines -------------------------------------------------------- *)

let test_tree_pls () =
  let rng = Rng.create 130 in
  for _ = 1 to 10 do
    let g = Graph.random_connected_gnp rng 20 0.2 in
    let adv = Pls.Tree.honest g 0 in
    Alcotest.(check bool) "honest accepted" true (Pls.Tree.verify g adv).Pls.accepted;
    (* Forged distance labels must be rejected. *)
    let forged = { adv with Pls.Tree.dist = Array.map (fun d -> d + 1) adv.Pls.Tree.dist } in
    Alcotest.(check bool) "forged rejected" false (Pls.Tree.verify g forged).Pls.accepted
  done

let test_tree_pls_cost () =
  let g = Graph.random_connected_gnp (Rng.create 4) 64 0.1 in
  Alcotest.(check int) "3 log n bits" 18 (Pls.Tree.advice_bits g)

let test_lcp_sym_complete_and_sound () =
  let rng = Rng.create 131 in
  let g = Family.random_symmetric rng 10 in
  (match Pls.Lcp_sym.honest g with
  | None -> Alcotest.fail "symmetric graph must have advice"
  | Some adv ->
    Alcotest.(check bool) "honest accepted" true (Pls.Lcp_sym.verify g adv).Pls.accepted);
  let a = Family.random_asymmetric rng 10 in
  Alcotest.(check (option reject)) "no advice for asymmetric" None
    (Option.map ignore (Pls.Lcp_sym.honest a));
  (* Forgery: advice for a different (symmetric) graph fails the row checks. *)
  let other = Family.random_symmetric rng 10 in
  (match Pls.Lcp_sym.honest other with
  | Some adv -> Alcotest.(check bool) "foreign advice rejected" false (Pls.Lcp_sym.verify a adv).Pls.accepted
  | None -> Alcotest.fail "advice expected")

let test_lcp_sym_identity_rejected () =
  (* Advice whose permutation is the identity is not a *nontrivial*
     automorphism and must be rejected. *)
  let g = Family.random_symmetric (Rng.create 132) 8 in
  match Pls.Lcp_sym.honest g with
  | None -> Alcotest.fail "advice expected"
  | Some adv ->
    let id_table = Array.init 8 Fun.id in
    let forged = { adv with Pls.Lcp_sym.rho = Array.make 8 id_table } in
    Alcotest.(check bool) "identity rejected" false (Pls.Lcp_sym.verify g forged).Pls.accepted

let test_lcp_sym_cost_quadratic () =
  List.iter
    (fun n ->
      let g = Graph.cycle n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d advice >= n^2" n)
        true
        (Pls.Lcp_sym.advice_bits g >= n * n))
    [ 8; 16; 32; 64; 128 ]

let test_lcp_gni () =
  let rng = Rng.create 133 in
  let g0 = Family.random_asymmetric rng 7 in
  let g1 =
    let rec pick () =
      let h = Family.random_asymmetric rng 7 in
      if Iso.are_isomorphic g0 h then pick () else h
    in
    pick ()
  in
  (match Pls.Lcp_gni.honest g0 g1 with
  | None -> Alcotest.fail "non-isomorphic pair must have advice"
  | Some adv -> Alcotest.(check bool) "honest accepted" true (Pls.Lcp_gni.verify g0 g1 adv).Pls.accepted);
  let iso = Graph.relabel g0 (Perm.to_array (Perm.random rng 7)) in
  Alcotest.(check (option reject)) "no advice for isomorphic pair" None
    (Option.map ignore (Pls.Lcp_gni.honest g0 iso))

(* --- GNI (Section 4) ------------------------------------------------------------ *)

let test_gni_single_rep_rates () =
  (* The Goldwasser–Sipser gap: the single-repetition hit rate on a YES
     instance must exceed the NO rate, and both must respect the analytical
     bounds (with sampling slack). *)
  let rng = Rng.create 140 in
  let yes = Gni.yes_instance rng 6 and no = Gni.no_instance rng 6 in
  let params = Gni.params_for ~seed:1 yes in
  let rate inst =
    let est =
      Stats.acceptance ~trials:(strials 250) (fun seed -> Gni.run_single ~params ~seed inst Gni.honest)
    in
    est.Stats.rate
  in
  let yes_rate = rate yes and no_rate = rate no in
  let yb = Gni.yes_rate_bound params and nb = Gni.no_rate_bound params in
  Alcotest.(check bool)
    (Printf.sprintf "yes %.3f > no %.3f" yes_rate no_rate)
    true (yes_rate > no_rate +. 0.03);
  Alcotest.(check bool)
    (Printf.sprintf "yes %.3f >= bound %.3f - slack" yes_rate yb)
    true
    (yes_rate >= yb -. 0.09);
  Alcotest.(check bool) (Printf.sprintf "no %.3f <= bound %.3f + slack" no_rate nb) true (no_rate <= nb +. 0.05)

let test_gni_full_protocol () =
  let rng = Rng.create 141 in
  let yes = Gni.yes_instance rng 6 and no = Gni.no_instance rng 6 in
  let params = Gni.params_for ~repetitions:400 ~seed:2 yes in
  for seed = 1 to 2 do
    Alcotest.(check bool) "YES accepted" true (accepted (Gni.run ~params ~seed yes Gni.honest));
    Alcotest.(check bool) "NO rejected" false (accepted (Gni.run ~params ~seed no Gni.honest))
  done

let test_gni_forging_adversary_blocked () =
  let rng = Rng.create 142 in
  let no = Gni.no_instance rng 6 in
  let params = Gni.params_for ~seed:3 no in
  (* The forging adversary turns misses into claimed hits; the root's own
     aggregation check must catch every forged repetition, so its hit rate
     cannot exceed the honest one. *)
  let forge = List.assoc "forge-aggregates" Adversary.gni in
  let est_forge =
    Stats.acceptance ~trials:(strials 120) (fun seed -> Gni.run_single ~params ~seed no forge)
  in
  let est_honest =
    Stats.acceptance ~trials:(strials 120) (fun seed -> Gni.run_single ~params ~seed no Gni.honest)
  in
  Alcotest.(check bool)
    (Printf.sprintf "forged %.3f <= honest %.3f + slack" est_forge.Stats.rate est_honest.Stats.rate)
    true
    (est_forge.Stats.rate <= est_honest.Stats.rate +. 0.08)

let test_gni_cost_scales_n_log_n_per_rep () =
  let rng = Rng.create 143 in
  List.iter
    (fun n ->
      let inst = Gni.yes_instance rng n in
      let o = Gni.run_single ~seed:1 inst Gni.honest in
      (* One repetition: a constant number of field elements of O(n log n)
         bits each, plus the permutation broadcast. *)
      let nlogn = float_of_int n *. float_of_int (Ids_network.Bits.ceil_log2 n) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: %d bits vs 40 n log n" n o.Outcome.max_bits_per_node)
        true
        (float_of_int o.Outcome.max_bits_per_node <= 40. *. nlogn))
    [ 6; 7 ]

let test_gni_instance_validation () =
  let rng = Rng.create 144 in
  let sym = Family.random_symmetric rng 6 in
  let asym = Family.random_asymmetric rng 6 in
  (match Gni.make_instance sym asym with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "symmetric g0 must be rejected");
  match Gni.make_instance asym (Graph.make 7) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size mismatch must be rejected"

let suite =
  [ ( "sym_dmam",
      [ Alcotest.test_case "completeness" `Quick test_dmam_completeness;
        Alcotest.test_case "soundness vs adversaries" `Quick test_dmam_soundness_adversaries;
        Alcotest.test_case "honest loses on NO instances" `Quick test_dmam_honest_loses_on_asymmetric;
        Alcotest.test_case "cost O(log n)" `Quick test_dmam_cost_logarithmic;
        Alcotest.test_case "exact acceptance probabilities" `Quick test_dmam_exact_probabilities;
        Alcotest.test_case "best adversary < 1/3" `Quick test_dmam_best_adversary_below_third;
        Alcotest.test_case "tiny graphs rejected" `Quick test_dmam_rejects_tiny
      ] );
    ( "sym_dam",
      [ Alcotest.test_case "completeness" `Quick test_dam_completeness;
        Alcotest.test_case "soundness" `Quick test_dam_soundness;
        Alcotest.test_case "cost O(n log n)" `Quick test_dam_cost_n_log_n;
        Alcotest.test_case "field size per paper" `Quick test_dam_field_size_matches_paper
      ] );
    ( "dsym",
      [ Alcotest.test_case "completeness" `Quick test_dsym_completeness;
        Alcotest.test_case "symmetric sides allowed" `Quick test_dsym_completeness_with_symmetric_sides;
        Alcotest.test_case "soundness on perturbed" `Quick test_dsym_soundness_on_perturbed;
        Alcotest.test_case "structural violations" `Quick test_dsym_soundness_structural;
        Alcotest.test_case "cost O(log n)" `Quick test_dsym_cost_logarithmic;
        Alcotest.test_case "instance validation" `Quick test_dsym_instance_validation
      ] );
    ( "pls",
      [ Alcotest.test_case "spanning tree PLS" `Quick test_tree_pls;
        Alcotest.test_case "tree PLS cost" `Quick test_tree_pls_cost;
        Alcotest.test_case "LCP Sym complete + sound" `Quick test_lcp_sym_complete_and_sound;
        Alcotest.test_case "LCP Sym identity rejected" `Quick test_lcp_sym_identity_rejected;
        Alcotest.test_case "LCP Sym Theta(n^2) advice" `Quick test_lcp_sym_cost_quadratic;
        Alcotest.test_case "LCP GNI" `Quick test_lcp_gni
      ] );
    ( "gni",
      [ Alcotest.test_case "single-repetition gap" `Slow test_gni_single_rep_rates;
        Alcotest.test_case "full protocol verdicts" `Slow test_gni_full_protocol;
        Alcotest.test_case "forging adversary blocked" `Slow test_gni_forging_adversary_blocked;
        Alcotest.test_case "per-repetition cost" `Quick test_gni_cost_scales_n_log_n_per_rep;
        Alcotest.test_case "instance validation" `Quick test_gni_instance_validation
      ] )
  ]
