(* The paper's motivating scenario (Section 1): a data center that knows the
   whole topology of a social network wants to convince the member devices —
   each of which sees only its own friend list — of a global structural fact,
   without the devices trusting the data center.

   Two claims are demonstrated:

   1. "Your community graph has a non-trivial symmetry" — e.g. two groups of
      members are structurally interchangeable, which is evidence of
      mirrored/duplicated community structure. Protocol 1 (dMAM) proves it
      with O(log n) bits per device.

   2. "These two communities are structurally different" (not isomorphic) —
      e.g. an allegedly copied botnet subcommunity is in fact not a copy.
      The distributed Goldwasser–Sipser protocol (dAMAM) proves it with
      O(n log n) bits per device.

   Run with:  dune exec examples/social_network.exe *)

module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Iso = Ids_graph.Iso
module Rng = Ids_bignum.Rng
open Ids_proof

(* A "social network" with planted mirror structure: two copies of a random
   community joined member-by-member (think: two departments with identical
   org charts, bridged by collaborations). *)
let mirrored_network rng n = Family.random_symmetric rng n

let () =
  let rng = Rng.create 99 in
  print_endline "=== Scenario 1: the data center proves the network is symmetric ===\n";
  let network = mirrored_network rng 40 in
  Printf.printf "social network: %d members, %d friendships\n" (Graph.n network)
    (Graph.edge_count network);
  let o = Sym_dmam.run ~seed:5 network Sym_dmam.honest in
  Printf.printf "protocol 1 (dMAM): %s, %d bits per device\n"
    (if o.Outcome.accepted then "ACCEPTED" else "REJECTED")
    o.Outcome.max_bits_per_node;
  Printf.printf "for comparison, shipping the full topology would cost %d bits per device\n\n"
    (Graph.n network * Graph.n network);

  print_endline "=== Scenario 2: the data center proves two communities differ ===\n";
  (* Community 0 is the network the devices communicate over; community 1 is
     handed to each device as input (its own row of the other community's
     adjacency matrix, e.g. fetched from a public log). *)
  let inst = Gni.yes_instance rng 7 in
  Printf.printf "community sizes: %d members each\n" 7;
  Printf.printf "ground truth: isomorphic = %b\n" (Iso.are_isomorphic inst.Gni.g0 inst.Gni.g1);
  let params = Gni.params_for ~repetitions:400 ~seed:8 inst in
  Printf.printf "GS hash range q = %d (prime ~ 4..8 x 7!), %d repetitions, threshold %d\n" params.Gs.q
    params.Gs.repetitions params.Gs.threshold;
  let o = Gni.run ~params ~seed:21 inst Gni.honest in
  Printf.printf "protocol (dAMAM): %s, %d bits per device total (%d per repetition)\n"
    (if o.Outcome.accepted then "ACCEPTED — communities are NOT isomorphic" else "REJECTED")
    o.Outcome.max_bits_per_node
    (o.Outcome.max_bits_per_node / params.Gs.repetitions);

  print_endline "\n=== Scenario 2b: a dishonest data center claims two equal communities differ ===\n";
  let fake = Gni.no_instance rng 7 in
  Printf.printf "ground truth: isomorphic = %b (the claim is false)\n"
    (Iso.are_isomorphic fake.Gni.g0 fake.Gni.g1);
  let params = Gni.params_for ~repetitions:400 ~seed:9 fake in
  let o = Gni.run ~params ~seed:22 fake Gni.honest in
  Printf.printf "protocol (dAMAM): %s\n"
    (if o.Outcome.accepted then "ACCEPTED (soundness failure!)"
     else "REJECTED — the devices caught the false claim");

  (* How often would a single repetition of the false claim slip through?
     Estimated with the parallel engine, with a Wilson interval. *)
  let module Engine = Ids_engine.Engine in
  let est =
    Stats.acceptance_ci ~trials:200 (fun seed -> Gni.run_single ~params ~seed fake Gni.honest)
  in
  Printf.printf
    "per-repetition acceptance of the false claim: %.3f, 95%% CI [%.3f, %.3f]\n\
     (safely below the %d/%d majority threshold the amplified protocol demands)\n"
    est.Engine.rate est.Engine.ci_low est.Engine.ci_high params.Gs.threshold
    params.Gs.repetitions
