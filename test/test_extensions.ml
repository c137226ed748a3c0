(* Tests for the extension modules: the unrestricted GNI protocol with the
   automorphism-compensation fix (Gni_full), the randomized proof labeling
   scheme (Rpls), and generic amplification (Amplify). *)

open Ids_proof
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Iso = Ids_graph.Iso
module Perm = Ids_graph.Perm
module Rng = Ids_bignum.Rng


(* Trial budgets honor IDS_TRIALS_SCALE so @runtest-fast can dial them down. *)
let strials n = Ids_engine.Engine.scaled_trials n

let accepted (o : Outcome.t) = o.Outcome.accepted

(* --- Gni_full -------------------------------------------------------------------- *)

(* The heart of the compensation fix: |S| = 2 n! on YES instances and n! on
   NO instances even when the graphs are symmetric. *)
let test_gni_full_candidate_counts () =
  let rng = Rng.create 200 in
  let yes = Gni_full.yes_instance rng 6 and no = Gni_full.no_instance rng 6 in
  Alcotest.(check bool) "one side symmetric" true (Iso.is_symmetric yes.Gni_full.g0);
  Alcotest.(check int) "YES: |S| = 2 * 6!" 1440 (Array.length (Gs.candidates yes.Gni_full.core));
  Alcotest.(check int) "NO: |S| = 6!" 720 (Array.length (Gs.candidates no.Gni_full.core))

let test_gni_full_candidate_counts_asymmetric_too () =
  (* The fix must also agree with the restricted protocol's counting. *)
  let rng = Rng.create 201 in
  let g0 = Family.random_asymmetric rng 6 in
  let g1 = Graph.relabel g0 (Perm.to_array (Perm.random rng 6)) in
  let inst = Gni_full.make_instance g0 g1 in
  Alcotest.(check int) "asymmetric isomorphic pair: n!" 720
    (Array.length (Gs.candidates inst.Gni_full.core))

let test_gni_full_aut_groups () =
  let rng = Rng.create 202 in
  let inst = Gni_full.yes_instance rng 6 in
  let aut0 = Lazy.force inst.Gni_full.aut0 in
  Alcotest.(check bool) "non-trivial group" true (List.length aut0 > 1);
  List.iter
    (fun table ->
      Alcotest.(check bool) "member is automorphism" true
        (Iso.is_automorphism inst.Gni_full.g0 (Perm.of_array table)))
    aut0;
  (* Orbit–stabilizer sanity: |Aut| divides n!. *)
  Alcotest.(check int) "Lagrange" 0 (720 mod List.length aut0)

let test_gni_full_single_rep_gap () =
  let rng = Rng.create 203 in
  let yes = Gni_full.yes_instance rng 6 and no = Gni_full.no_instance rng 6 in
  let params = Gni_full.params_for ~seed:1 yes in
  let rate inst =
    (Stats.acceptance ~trials:(strials 200) (fun seed -> Gni_full.run_single ~params ~seed inst Gni_full.honest))
      .Stats.rate
  in
  let yes_rate = rate yes and no_rate = rate no in
  Alcotest.(check bool)
    (Printf.sprintf "yes %.3f > no %.3f" yes_rate no_rate)
    true
    (yes_rate > no_rate +. 0.03);
  Alcotest.(check bool) "yes >= bound - slack" true (yes_rate >= params.Gs.yes_bound -. 0.09);
  Alcotest.(check bool) "no <= bound + slack" true (no_rate <= params.Gs.no_bound +. 0.06)

let test_gni_full_verdicts () =
  let rng = Rng.create 204 in
  let yes = Gni_full.yes_instance rng 6 and no = Gni_full.no_instance rng 6 in
  let params = Gni_full.params_for ~repetitions:400 ~seed:2 yes in
  Alcotest.(check bool) "YES accepted" true (accepted (Gni_full.run ~params ~seed:1 yes Gni_full.honest));
  Alcotest.(check bool) "NO rejected" false (accepted (Gni_full.run ~params ~seed:1 no Gni_full.honest))

let test_gni_full_fake_automorphism_caught () =
  (* The inflated adversary finds hash hits easily but must be unmasked by
     the post-commitment audit: its hit rate cannot exceed the honest one
     beyond noise. *)
  let rng = Rng.create 205 in
  let no = Gni_full.no_instance rng 6 in
  let params = Gni_full.params_for ~seed:3 no in
  let rate prover =
    (Stats.acceptance ~trials:(strials 120) (fun seed -> Gni_full.run_single ~params ~seed no prover)).Stats.rate
  in
  let fake = rate Gni_full.adversary_fake_automorphism and honest = rate Gni_full.honest in
  Alcotest.(check bool)
    (Printf.sprintf "fake %.3f <= honest %.3f + slack" fake honest)
    true
    (fake <= honest +. 0.08)

let test_gni_full_rejects_big_groups () =
  (* A star has (n-1)! automorphisms — too many to enumerate; the
     constructor must refuse rather than hang. *)
  let star = Graph.star 7 in
  match Gni_full.make_instance star star with
  | exception Invalid_argument _ -> ()
  | inst ->
    (match Gs.candidates inst.Gni_full.core with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "oversized automorphism group must be refused")

(* --- Outcome fingerprints ------------------------------------------------------- *)

(* Pins (accepted, total bits, max bits per node) of single repetitions and
   short amplified runs over a grid of seeds, for the honest prover and the
   fake-automorphism cheat. Any change to the round structure, the params
   derivation, the candidate order or the local checks moves one of them. *)
let fingerprint (o : Outcome.t) = (o.Outcome.accepted, o.Outcome.total_bits, o.Outcome.max_bits_per_node)

let fingerprints ~run ~run_single =
  List.map (fun seed -> fingerprint (run_single seed)) [ 1; 2; 3; 4; 5; 6 ]
  @ List.map (fun seed -> fingerprint (run seed)) [ 1; 2 ]

let check_fingerprints tag want got =
  Alcotest.(check (list (triple bool int int))) tag want got

let test_gni_full_fingerprints () =
  let rng = Rng.create 230 in
  let yes = Gni_full.yes_instance rng 6 and no = Gni_full.no_instance rng 6 in
  let params = Gni_full.params_for ~seed:1 yes and short = Gni_full.params_for ~repetitions:6 ~seed:1 yes in
  let case inst prover =
    fingerprints
      ~run:(fun seed -> Gni_full.run ~params:short ~seed inst prover)
      ~run_single:(fun seed -> Gni_full.run_single ~params ~seed inst prover)
  in
  check_fingerprints "honest yes"
    [ (false, 2076, 346); (false, 2076, 346); (true, 2076, 346); (true, 2076, 346);
      (false, 2076, 346); (false, 2076, 346); (false, 12456, 2076); (true, 12456, 2076) ]
    (case yes Gni_full.honest);
  check_fingerprints "honest no"
    [ (true, 2076, 346); (false, 2076, 346); (false, 2076, 346); (false, 2076, 346);
      (false, 2076, 346); (false, 2076, 346); (true, 12456, 2076); (false, 12456, 2076) ]
    (case no Gni_full.honest);
  check_fingerprints "fake automorphism no"
    [ (true, 2076, 346); (false, 2076, 346); (false, 2076, 346); (false, 2076, 346);
      (false, 2076, 346); (false, 2076, 346); (true, 12456, 2076); (false, 12456, 2076) ]
    (case no Gni_full.adversary_fake_automorphism)

let test_gni_induced_fingerprints () =
  let rng = Rng.create 231 in
  let yes = Gni_induced.yes_instance rng 10 and no = Gni_induced.no_instance rng 10 in
  let params = Gni_induced.params_for ~seed:1 yes
  and short = Gni_induced.params_for ~repetitions:6 ~seed:1 yes in
  let case inst =
    fingerprints
      ~run:(fun seed -> Gni_induced.run ~params:short ~seed inst Gni_induced.honest)
      ~run_single:(fun seed -> Gni_induced.run_single ~params ~seed inst Gni_induced.honest)
  in
  check_fingerprints "honest yes"
    [ (false, 4390, 439); (true, 4390, 439); (false, 4390, 439); (false, 4390, 439);
      (false, 4390, 439); (false, 4390, 439); (false, 26340, 2634); (true, 26340, 2634) ]
    (case yes);
  check_fingerprints "honest no"
    [ (false, 4390, 439); (false, 4390, 439); (false, 4390, 439); (false, 4390, 439);
      (false, 4390, 439); (false, 4390, 439); (false, 26340, 2634); (false, 26340, 2634) ]
    (case no)

(* --- Rpls ------------------------------------------------------------------------ *)

let test_rpls_completeness () =
  let rng = Rng.create 210 in
  List.iter
    (fun n ->
      let g = Family.random_symmetric rng n in
      let advice = Option.get (Pls.Lcp_sym.honest g) in
      for seed = 1 to 5 do
        let v = Rpls.verify_sym ~seed g advice in
        Alcotest.(check bool) (Printf.sprintf "n=%d honest verified" n) true v.Rpls.accepted
      done)
    [ 8; 16; 32 ]

let test_rpls_exponential_verification_saving () =
  let rng = Rng.create 211 in
  let g = Family.random_symmetric rng 64 in
  let advice = Option.get (Pls.Lcp_sym.honest g) in
  let v = Rpls.verify_sym ~seed:1 g advice in
  let det = Rpls.deterministic_verification_bits g in
  Alcotest.(check bool)
    (Printf.sprintf "fingerprint %d bits/edge << deterministic %d" v.Rpls.verification_bits_per_edge det)
    true
    (v.Rpls.verification_bits_per_edge * 40 < det);
  (* But the advice itself is unchanged — the point of the paper's remark
     that RPLS does not subsume interaction. *)
  Alcotest.(check int) "advice unchanged" (Pls.Lcp_sym.advice_bits g) v.Rpls.advice_bits_per_node

let test_rpls_catches_corruption () =
  (* Corrupt one node's copy of the matrix; over independent verification
     rounds the fingerprints must catch it essentially always. *)
  let rng = Rng.create 212 in
  let g = Family.random_symmetric rng 12 in
  let advice = Option.get (Pls.Lcp_sym.honest g) in
  let corrupt = { advice with Pls.Lcp_sym.matrix = Array.copy advice.Pls.Lcp_sym.matrix } in
  (* Flip one bit outside node 3's own row so its exact row check passes. *)
  let s = Bytes.of_string corrupt.Pls.Lcp_sym.matrix.(3) in
  let off = if 3 * 12 = 0 then 12 * 11 else 0 in
  Bytes.set s off (if Bytes.get s off = '0' then '1' else '0');
  corrupt.Pls.Lcp_sym.matrix.(3) <- Bytes.to_string s;
  let caught = ref 0 in
  for seed = 1 to 40 do
    if not (Rpls.verify_sym ~seed g corrupt).Rpls.accepted then incr caught
  done;
  Alcotest.(check bool) (Printf.sprintf "caught %d/40" !caught) true (!caught >= 39)

let test_rpls_error_bound_small () =
  let g = Family.random_symmetric (Rng.create 213) 16 in
  let bound = Rpls.soundness_error_bound g ~p:(4 * 16 * 16 * 16 * 16) in
  Alcotest.(check bool) (Printf.sprintf "bound %.4f < 1/3" bound) true (bound < 1. /. 3.)

(* --- Amplify ---------------------------------------------------------------------- *)

let fake_run rate seed =
  (* Deterministic pseudo-protocol accepting with the given rate. *)
  let rng = Rng.create (seed * 7919) in
  { Outcome.accepted = Rng.float rng < rate;
    max_bits_per_node = 10;
    max_response_bits = 6;
    total_bits = 100;
    prover = "fake"
  }

let test_amplify_majority_sharpens () =
  let strong = Amplify.majority ~trials:101 (fake_run 0.7) in
  let weak = Amplify.majority ~trials:101 (fake_run 0.3) in
  Alcotest.(check bool) "0.7 amplified to accept" true strong.Amplify.outcome.Outcome.accepted;
  Alcotest.(check bool) "0.3 amplified to reject" false weak.Amplify.outcome.Outcome.accepted

let test_amplify_costs_sum () =
  let r = Amplify.repeat ~trials:10 ~threshold:5 (fake_run 0.5) in
  Alcotest.(check int) "bits summed" 100 r.Amplify.outcome.Outcome.max_bits_per_node;
  Alcotest.(check int) "total summed" 1000 r.Amplify.outcome.Outcome.total_bits;
  Alcotest.(check int) "trials recorded" 10 r.Amplify.trials

let test_amplify_error_bound_monotone () =
  let b t = Amplify.error_bound ~single_rate:(2. /. 3.) ~trials:t ~threshold:(t / 2) in
  Alcotest.(check bool) "more trials, smaller error" true (b 300 < b 30 && b 30 < b 3);
  Alcotest.(check bool) "eventually tiny" true (b 1000 < 1e-6)

let test_amplify_trials_for () =
  let t, tau = Amplify.trials_for ~yes_rate:(2. /. 3.) ~no_rate:(1. /. 3.) ~delta:0.01 in
  Alcotest.(check bool) "positive" true (t > 0 && tau > 0 && tau <= t);
  (* The returned parameters really achieve the bound. *)
  Alcotest.(check bool) "yes error <= delta" true
    (Amplify.error_bound ~single_rate:(2. /. 3.) ~trials:t ~threshold:tau <= 0.011);
  Alcotest.(check bool) "invalid input rejected" true
    (match Amplify.trials_for ~yes_rate:0.3 ~no_rate:0.4 ~delta:0.1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_midpoint_threshold_boundaries () =
  let thr ~trials ~yes ~no = Stats.midpoint_threshold ~trials ~yes_rate:yes ~no_rate:no in
  (* Exact integer midpoints must not pick up a float-noise extra accept:
     10 * (0.8 + 0.4) / 2 is 6.000000000000001 in floats, and the old
     ceil-only computation returned 7. *)
  Alcotest.(check int) "exact midpoint 6" 6 (thr ~trials:10 ~yes:0.8 ~no:0.4);
  Alcotest.(check int) "exact midpoint 360" 360 (thr ~trials:600 ~yes:0.8 ~no:0.4);
  (* Non-integer midpoints still round up. *)
  Alcotest.(check int) "fractional rounds up" 7 (thr ~trials:11 ~yes:0.8 ~no:0.4);
  Alcotest.(check int) "definition-2 even" 300 (thr ~trials:600 ~yes:(2. /. 3.) ~no:(1. /. 3.));
  Alcotest.(check int) "definition-2 odd" 301 (thr ~trials:601 ~yes:(2. /. 3.) ~no:(1. /. 3.));
  (* Clamped to the trial count. *)
  Alcotest.(check int) "clamped" 10 (thr ~trials:10 ~yes:1.0 ~no:1.0);
  Alcotest.(check int) "zero rates" 0 (thr ~trials:10 ~yes:0.0 ~no:0.0)

let test_amplify_accepts_at_exact_threshold () =
  (* The acceptance comparison is >=: exactly threshold accepts is enough. *)
  let run_accepting k seed = (fake_run 1.0) seed |> fun o -> { o with Outcome.accepted = seed <= k } in
  let at = Amplify.repeat ~trials:10 ~threshold:6 (run_accepting 6) in
  let below = Amplify.repeat ~trials:10 ~threshold:6 (run_accepting 5) in
  Alcotest.(check bool) "exactly threshold accepts" true at.Amplify.outcome.Outcome.accepted;
  Alcotest.(check bool) "one below rejects" false below.Amplify.outcome.Outcome.accepted

let test_gni_threshold_uses_midpoint () =
  (* The three GNI acceptance thresholds all come from the shared snapped
     midpoint; pin the relationship on a real parameter draw. *)
  let inst = Gni.yes_instance (Rng.create 3) 6 in
  let params = Gni.params_for ~seed:5 inst in
  Alcotest.(check int) "gni threshold"
    (Stats.midpoint_threshold ~trials:params.Gs.repetitions
       ~yes_rate:(Gni.yes_rate_bound params) ~no_rate:(Gni.no_rate_bound params))
    params.Gs.threshold

let test_amplify_protocol_end_to_end () =
  (* Amplify Protocol 1 to error ~0 on both sides. *)
  let rng = Rng.create 214 in
  let yes_g = Family.random_symmetric rng 10 and no_g = Family.random_asymmetric rng 10 in
  let yes = Amplify.majority ~trials:9 (fun seed -> Sym_dmam.run ~seed yes_g Sym_dmam.honest) in
  let cheat = List.assoc "random-perm" Adversary.sym_dmam in
  let no = Amplify.majority ~trials:9 (fun seed -> Sym_dmam.run ~seed no_g cheat) in
  Alcotest.(check bool) "YES amplified accept" true yes.Amplify.outcome.Outcome.accepted;
  Alcotest.(check bool) "NO amplified reject" false no.Amplify.outcome.Outcome.accepted

let suite =
  [ ( "gni_full",
      [ Alcotest.test_case "|S| counting with symmetric graphs" `Slow test_gni_full_candidate_counts;
        Alcotest.test_case "|S| counting, asymmetric isomorphic" `Quick
          test_gni_full_candidate_counts_asymmetric_too;
        Alcotest.test_case "automorphism groups" `Quick test_gni_full_aut_groups;
        Alcotest.test_case "single-repetition gap" `Slow test_gni_full_single_rep_gap;
        Alcotest.test_case "amplified verdicts" `Slow test_gni_full_verdicts;
        Alcotest.test_case "fake automorphism caught by audit" `Slow test_gni_full_fake_automorphism_caught;
        Alcotest.test_case "oversized groups refused" `Quick test_gni_full_rejects_big_groups
      ] );
    ( "gni fingerprints",
      [ Alcotest.test_case "Gni_full outcomes pinned" `Quick test_gni_full_fingerprints;
        Alcotest.test_case "Gni_induced outcomes pinned" `Quick test_gni_induced_fingerprints
      ] );
    ( "rpls",
      [ Alcotest.test_case "completeness" `Quick test_rpls_completeness;
        Alcotest.test_case "exponential verification saving" `Quick test_rpls_exponential_verification_saving;
        Alcotest.test_case "corruption caught" `Quick test_rpls_catches_corruption;
        Alcotest.test_case "error bound small" `Quick test_rpls_error_bound_small
      ] );
    ( "amplify",
      [ Alcotest.test_case "majority sharpens" `Quick test_amplify_majority_sharpens;
        Alcotest.test_case "costs sum" `Quick test_amplify_costs_sum;
        Alcotest.test_case "error bound monotone" `Quick test_amplify_error_bound_monotone;
        Alcotest.test_case "trials_for" `Quick test_amplify_trials_for;
        Alcotest.test_case "midpoint threshold boundaries" `Quick test_midpoint_threshold_boundaries;
        Alcotest.test_case "accepts at exact threshold" `Quick test_amplify_accepts_at_exact_threshold;
        Alcotest.test_case "GNI threshold uses snapped midpoint" `Quick test_gni_threshold_uses_midpoint;
        Alcotest.test_case "Protocol 1 amplified end-to-end" `Quick test_amplify_protocol_end_to_end
      ] )
  ]
