(* Integration tests: cross-module, end-to-end behaviors — protocols used as
   decision procedures against the exact ground truth, determinism of whole
   executions, cost-accounting invariants, and round trips through the
   interchange formats. *)

open Ids_proof
module Graph = Ids_graph.Graph
module Graph_io = Ids_graph.Graph_io
module Family = Ids_graph.Family
module Iso = Ids_graph.Iso
module Rng = Ids_bignum.Rng

let qtest = QCheck_alcotest.to_alcotest

(* Protocol 1 as a decision procedure for Sym: run the honest prover; the
   verdict must equal ground truth (completeness is deterministic; the
   honest prover on NO instances is caught up to hash-collision odds, so a
   single run errs with probability < 1/(9n)). *)
let prop_dmam_decides_sym =
  QCheck.Test.make ~name:"Protocol 1 + honest prover decides Sym" ~count:60
    (QCheck.make QCheck.Gen.(pair (int_range 6 12) (int_bound 1_000_000)))
    (fun (n, seed) ->
      let g = Graph.random_connected_gnp (Rng.create seed) n 0.5 in
      let truth = Iso.is_symmetric g in
      let verdict = (Sym_dmam.run ~seed:(seed + 1) g Sym_dmam.honest).Outcome.accepted in
      verdict = truth)

let prop_dam_decides_sym =
  QCheck.Test.make ~name:"Protocol 2 + honest prover decides Sym" ~count:25
    (QCheck.make QCheck.Gen.(pair (int_range 6 10) (int_bound 1_000_000)))
    (fun (n, seed) ->
      let g = Graph.random_connected_gnp (Rng.create seed) n 0.5 in
      Iso.is_symmetric g = (Sym_dam.run ~seed:(seed + 1) g Sym_dam.honest).Outcome.accepted)

let prop_protocols_agree =
  QCheck.Test.make ~name:"Protocols 1 and 2 agree on every instance" ~count:25
    (QCheck.make QCheck.Gen.(pair (int_range 6 10) (int_bound 1_000_000)))
    (fun (n, seed) ->
      let g = Graph.random_connected_gnp (Rng.create seed) n 0.5 in
      (Sym_dmam.run ~seed g Sym_dmam.honest).Outcome.accepted
      = (Sym_dam.run ~seed g Sym_dam.honest).Outcome.accepted)

(* Determinism: executions are pure functions of (instance, seed, prover). *)
let test_runs_deterministic () =
  let rng = Rng.create 400 in
  let g = Family.random_symmetric rng 14 in
  let o1 = Sym_dmam.run ~seed:9 g Sym_dmam.honest and o2 = Sym_dmam.run ~seed:9 g Sym_dmam.honest in
  Alcotest.(check bool) "same verdict" o1.Outcome.accepted o2.Outcome.accepted;
  Alcotest.(check int) "same cost" o1.Outcome.max_bits_per_node o2.Outcome.max_bits_per_node;
  Alcotest.(check int) "same total" o1.Outcome.total_bits o2.Outcome.total_bits;
  let f = Family.random_asymmetric rng 6 in
  let inst = Dsym.make_instance ~n:6 ~r:2 (Family.dsym_graph f 2) in
  let d1 = Dsym.run ~seed:3 inst Dsym.honest and d2 = Dsym.run ~seed:3 inst Dsym.honest in
  Alcotest.(check int) "dsym deterministic" d1.Outcome.total_bits d2.Outcome.total_bits

(* The communication pattern is protocol-determined: an adversary is charged
   exactly like the honest prover on the same instance and seed. *)
let test_cost_independent_of_prover () =
  let rng = Rng.create 401 in
  let g = Family.random_asymmetric rng 12 in
  let honest = Sym_dmam.run ~seed:5 g Sym_dmam.honest in
  let cheat = Sym_dmam.run ~seed:5 g (List.assoc "random-perm" Adversary.sym_dmam) in
  Alcotest.(check int) "same bits" honest.Outcome.max_bits_per_node cheat.Outcome.max_bits_per_node;
  Alcotest.(check int) "same total" honest.Outcome.total_bits cheat.Outcome.total_bits

let test_outcome_cost_relations () =
  let rng = Rng.create 402 in
  let g = Family.random_symmetric rng 16 in
  let o = Sym_dmam.run ~seed:7 g Sym_dmam.honest in
  Alcotest.(check bool) "responses <= per-node" true
    (o.Outcome.max_response_bits <= o.Outcome.max_bits_per_node);
  Alcotest.(check bool) "per-node <= total" true (o.Outcome.max_bits_per_node <= o.Outcome.total_bits);
  Alcotest.(check bool) "positive" true (o.Outcome.max_response_bits > 0)

(* Instances survive a graph6 round trip and behave identically. *)
let test_graph6_roundtrip_preserves_protocol () =
  let rng = Rng.create 403 in
  let g = Family.random_symmetric rng 12 in
  let g' = Graph_io.of_graph6 (Graph_io.to_graph6 g) in
  let o = Sym_dmam.run ~seed:4 g Sym_dmam.honest and o' = Sym_dmam.run ~seed:4 g' Sym_dmam.honest in
  Alcotest.(check bool) "same verdict" o.Outcome.accepted o'.Outcome.accepted;
  Alcotest.(check int) "same cost" o.Outcome.total_bits o'.Outcome.total_bits

(* The dumbbell family ties together Family, Iso, Protocol 1 and the LCP:
   the interactive and non-interactive proofs must agree on every pair. *)
let test_dumbbells_across_proof_systems () =
  let rng = Rng.create 404 in
  let fam = Array.of_list (Family.asymmetric_family rng ~n:6 ~size:3) in
  Array.iteri
    (fun i fi ->
      Array.iteri
        (fun j fj ->
          let g = Family.dumbbell fi fj in
          let expected = i = j in
          Alcotest.(check bool) "Protocol 1" expected (Sym_dmam.run ~seed:1 g Sym_dmam.honest).Outcome.accepted;
          Alcotest.(check bool) "LCP witness existence" expected (Pls.Lcp_sym.honest g <> None))
        fam)
    fam

(* The three GNI variants must agree with the ground truth on their shared
   domain (asymmetric pairs). *)
let test_gni_variants_agree () =
  let rng = Rng.create 405 in
  let g0 = Family.random_asymmetric rng 6 in
  let g1 =
    let rec pick () =
      let h = Family.random_asymmetric rng 6 in
      if Iso.are_isomorphic g0 h then pick () else h
    in
    pick ()
  in
  let basic = Gni.make_instance g0 g1 in
  let full = Gni_full.make_instance g0 g1 in
  Alcotest.(check int) "same |S| on asymmetric pairs"
    (Array.length (Gs.candidates basic.Gni.core))
    (Array.length (Gs.candidates full.Gni_full.core));
  let pb = Gni.params_for ~repetitions:300 ~seed:1 basic in
  let pf = Gni_full.params_for ~repetitions:300 ~seed:1 full in
  Alcotest.(check bool) "basic accepts" true (Gni.run ~params:pb ~seed:2 basic Gni.honest).Outcome.accepted;
  Alcotest.(check bool) "full accepts" true
    (Gni_full.run ~params:pf ~seed:2 full Gni_full.honest).Outcome.accepted

(* Amplified Protocol 1 as a near-perfect decision procedure on a mixed
   batch of instances. *)
let test_amplified_batch_decision () =
  let rng = Rng.create 406 in
  for _ = 1 to 6 do
    let symmetric = Rng.bool rng in
    let g = if symmetric then Family.random_symmetric rng 10 else Family.random_asymmetric rng 10 in
    let prover = if symmetric then Sym_dmam.honest else List.assoc "random-perm" Adversary.sym_dmam in
    let r = Amplify.majority ~trials:7 (fun seed -> Sym_dmam.run ~seed g prover) in
    Alcotest.(check bool) "verdict matches truth" symmetric r.Amplify.outcome.Outcome.accepted
  done

(* A full pipeline: generate, export, report, verify — nothing raises. *)
let test_pipeline_smoke () =
  let rng = Rng.create 407 in
  let g = Family.random_symmetric rng 10 in
  let dot = Graph_io.to_dot g in
  Alcotest.(check bool) "dot nonempty" true (String.length dot > 10);
  let tree = Pls.Tree.honest g 0 in
  Alcotest.(check bool) "tree verifies" true (Pls.Tree.verify g tree).Pls.accepted;
  match Pls.Lcp_sym.honest g with
  | None -> Alcotest.fail "advice expected"
  | Some advice ->
    Alcotest.(check bool) "lcp verifies" true (Pls.Lcp_sym.verify g advice).Pls.accepted;
    Alcotest.(check bool) "rpls verifies" true (Rpls.verify_sym ~seed:1 g advice).Rpls.accepted

let suite =
  [ ( "integration",
      [ qtest prop_dmam_decides_sym;
        qtest prop_dam_decides_sym;
        qtest prop_protocols_agree;
        Alcotest.test_case "executions deterministic" `Quick test_runs_deterministic;
        Alcotest.test_case "cost independent of prover" `Quick test_cost_independent_of_prover;
        Alcotest.test_case "cost relations" `Quick test_outcome_cost_relations;
        Alcotest.test_case "graph6 roundtrip preserves behavior" `Quick test_graph6_roundtrip_preserves_protocol;
        Alcotest.test_case "dumbbells across proof systems" `Quick test_dumbbells_across_proof_systems;
        Alcotest.test_case "GNI variants agree" `Slow test_gni_variants_agree;
        Alcotest.test_case "amplified batch decisions" `Quick test_amplified_batch_decision;
        Alcotest.test_case "full pipeline smoke" `Quick test_pipeline_smoke
      ] )
  ]
