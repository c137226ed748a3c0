(* Unrestricted GNI on symmetric graphs — the case the basic protocol of
   Section 4 explicitly sets aside and fixes with the Goldwasser-Sipser
   automorphism-compensation trick.

   Scenario: a platform hosts two mirror-structured communities (each has
   internal symmetry, e.g. paired moderator roles). A regulator suspects one
   is a disguised copy of the other; the platform claims they are genuinely
   different. Because the communities are symmetric, applying different
   permutations can yield the same graph, so naive set-size estimation
   under-counts: the prover must also exhibit an automorphism with each
   response, restoring |S| to exactly 2 x n! (different) vs n! (copies).

   Run with:  dune exec examples/symmetric_communities.exe *)

module Graph = Ids_graph.Graph
module Iso = Ids_graph.Iso
module Rng = Ids_bignum.Rng
open Ids_proof

let () =
  let rng = Rng.create 2718 in
  print_endline "=== Unrestricted GNI: symmetric communities ===\n";
  let yes = Gni_full.yes_instance rng 6 in
  Printf.printf "community A: 6 members, |Aut| = %d (symmetric!)\n"
    (List.length (Lazy.force yes.Gni_full.aut0));
  Printf.printf "community B: 6 members, |Aut| = %d\n" (List.length (Lazy.force yes.Gni_full.aut1));
  Printf.printf "ground truth: isomorphic = %b\n\n" (Iso.are_isomorphic yes.Gni_full.g0 yes.Gni_full.g1);

  (* Show why the restricted protocol refuses this instance. *)
  (match Gni.make_instance yes.Gni_full.g0 yes.Gni_full.g1 with
  | exception Invalid_argument msg -> Printf.printf "basic protocol refuses: %s\n" msg
  | _ -> print_endline "unexpected: basic protocol accepted a symmetric instance");

  (* The compensated candidate sets have exactly the sizes the analysis
     needs, symmetry notwithstanding. *)
  Printf.printf "compensated |S|: %d (= 2 x 6! — every copy carries its automorphisms)\n\n"
    (Array.length (Gs.candidates yes.Gni_full.core));

  let params = Gni_full.params_for ~repetitions:400 ~seed:3 yes in
  let o = Gni_full.run ~params ~seed:9 yes Gni_full.honest in
  Printf.printf "protocol verdict: %s (%d bits per member)\n"
    (if o.Outcome.accepted then "ACCEPT — communities are genuinely different" else "REJECT")
    o.Outcome.max_bits_per_node;

  print_endline "\n=== And when community B *is* a disguised copy ===\n";
  let no = Gni_full.no_instance rng 6 in
  Printf.printf "compensated |S|: %d (= 6! — the two sides contribute the same pairs)\n"
    (Array.length (Gs.candidates no.Gni_full.core));
  let params = Gni_full.params_for ~repetitions:400 ~seed:4 no in
  let o = Gni_full.run ~params ~seed:10 no Gni_full.honest in
  Printf.printf "protocol verdict: %s\n"
    (if o.Outcome.accepted then "ACCEPT (soundness failure!)" else "REJECT — the copy was caught");

  print_endline "\n=== A cheating platform forging the automorphism ===\n";
  let module Engine = Ids_engine.Engine in
  let est =
    Stats.acceptance_ci ~trials:100 (fun seed ->
        Gni_full.run_single ~params ~seed no Gni_full.adversary_fake_automorphism)
  in
  Printf.printf
    "fake-automorphism adversary per-repetition rate: %.2f, 95%% CI [%.3f, %.3f]\n\
     (no better than honest -- the post-commitment audit hash of the second\n\
     Arthur round unmasks every forged alpha)\n"
    est.Engine.rate est.Engine.ci_low est.Engine.ci_high
