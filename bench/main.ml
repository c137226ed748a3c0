(* The experiment harness: regenerates every table of EXPERIMENTS.md (the
   empirical reproduction of the paper's theorems, E1..E8) and finishes with
   Bechamel timing benchmarks, one Test.make per experiment's hot path.

   Run everything:        dune exec bench/main.exe
   Run one experiment:    dune exec bench/main.exe -- e3
   Skip the timing pass:  dune exec bench/main.exe -- tables *)

module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Iso = Ids_graph.Iso
module Perm = Ids_graph.Perm
module Rng = Ids_bignum.Rng
module Bits = Ids_network.Bits
module Engine = Ids_engine.Engine
module Runlog = Ids_engine.Runlog
module Obs = Ids_obs.Obs
module Trace = Ids_obs.Trace
open Ids_proof

let header title = Printf.printf "\n=== %s ===\n\n" title

(* Every estimate goes through the parallel engine (worker count from
   IDS_DOMAINS, default all cores). Base trial counts are multiplied by
   IDS_TRIALS_SCALE, default 4x the historical sequential budgets — the
   engine buys the extra statistical power back in wall time. *)
let scaled trials = Engine.scaled_trials ~default_scale:4.0 trials

(* When tracing is on, each estimate's run-log record carries the metrics
   snapshot covering exactly its own trials. *)
let metrics_snapshot () = if Obs.enabled () then Some (Obs.snapshot_json (Obs.snapshot ())) else None

let est ~protocol ~n ~prover ~trials run =
  if Obs.enabled () then Obs.reset_metrics ();
  let e = Stats.acceptance_ci ~trials:(scaled trials) run in
  Runlog.log ?metrics:(metrics_snapshot ()) ~protocol ~n ~prover e;
  e

let rate_of est = est.Engine.rate

let ci est = Printf.sprintf "[%.3f,%.3f]" est.Engine.ci_low est.Engine.ci_high

(* The registry cheaters the NO rows run. *)
let dmam_random_perm = List.assoc "random-perm" Adversary.sym_dmam
let dam_search = List.assoc "search" Adversary.sym_dam
let dsym_consistent = List.assoc "consistent" Adversary.dsym

(* --- E1: Theorem 1.1 — Sym in dMAM[O(log n)] ---------------------------------- *)

let e1 () =
  header "E1  Theorem 1.1: Sym in dMAM[O(log n)]  (Protocol 1)";
  Printf.printf "%6s | %9s %15s %9s %15s | %12s %12s | %10s %12s\n" "n" "YES acc" "YES 95% CI"
    "NO acc" "NO 95% CI" "bits/node" "16logn+28" "NO exact" "m/p bound";
  let rng = Rng.create 1 in
  List.iter
    (fun n ->
      let trials = if n <= 64 then 60 else 30 in
      let yes_g = Family.random_symmetric rng n in
      let no_g = Family.random_asymmetric rng n in
      let yes =
        est ~protocol:"sym_dmam" ~n ~prover:"honest" ~trials (fun seed ->
            Sym_dmam.run ~seed yes_g Sym_dmam.honest)
      in
      let no =
        est ~protocol:"sym_dmam" ~n ~prover:"random-perm" ~trials (fun seed ->
            Sym_dmam.run ~seed no_g dmam_random_perm)
      in
      let params = Sym_dmam.params_for ~seed:3 no_g in
      let exact =
        if n <= 16 then
          Printf.sprintf "%.5f"
            (Sym_dmam.acceptance_probability_exact params no_g (Perm.random_nonidentity rng n))
        else "-"
      in
      Printf.printf "%6d | %9.3f %15s %9.3f %15s | %12.1f %12d | %10s %12.5f\n" n (rate_of yes)
        (ci yes) (rate_of no) (ci no) yes.Engine.mean_bits
        ((16 * Bits.ceil_log2 n) + 28)
        exact
        (Ids_hash.Linear.collision_bound ~n ~p:params.Sym_dmam.p))
    [ 8; 16; 32; 64; 128 ];
  print_endline "\nShape: YES acceptance 1.0 (>2/3), NO ~0 (<1/3); bits/node tracks the O(log n) line."

(* --- E2: Theorem 1.3 — Sym in dAM[O(n log n)] ---------------------------------- *)

let e2 () =
  header "E2  Theorem 1.3: Sym in dAM[O(n log n)]  (Protocol 2, bignum prime ~ n^(n+2))";
  Printf.printf "%6s | %9s %15s %9s %15s | %12s %12s | %12s\n" "n" "YES acc" "YES 95% CI" "NO acc"
    "NO 95% CI" "bits/node" "~6nlogn" "p bits";
  let rng = Rng.create 2 in
  List.iter
    (fun n ->
      let trials = if n <= 12 then 20 else 10 in
      let yes_g = Family.random_symmetric rng n in
      let no_g = Family.random_asymmetric rng n in
      let params = Sym_dam.params_for ~seed:5 yes_g in
      let yes =
        est ~protocol:"sym_dam" ~n ~prover:"honest" ~trials (fun seed ->
            Sym_dam.run ~params ~seed yes_g Sym_dam.honest)
      in
      let no_params = Sym_dam.params_for ~seed:5 no_g in
      let no =
        est ~protocol:"sym_dam" ~n ~prover:"search" ~trials (fun seed ->
            Sym_dam.run ~params:no_params ~seed no_g dam_search)
      in
      Printf.printf "%6d | %9.3f %15s %9.3f %15s | %12.1f %12d | %12d\n" n (rate_of yes) (ci yes)
        (rate_of no) (ci no) yes.Engine.mean_bits
        (6 * n * Bits.ceil_log2 n)
        (Ids_bignum.Nat.bit_length params.Sym_dam.p))
    [ 6; 8; 12; 16; 20 ];
  print_endline "\nShape: cost grows ~ n log n (vs Protocol 1's log n); soundness via union bound over n^n maps."

(* --- E3: Theorem 1.2 / 3.6 — exponential separation ----------------------------- *)

let e3 () =
  header "E3  Theorem 1.2/3.6: DSym — dAM[O(log n)] vs Omega(n^2) distributed NP";
  Printf.printf "%6s %9s | %13s %13s %9s | %9s %9s\n" "side" "vertices" "LCP bits/node" "dAM bits/node"
    "ratio" "YES acc" "NO acc";
  let rng = Rng.create 3 in
  List.iter
    (fun n ->
      let r = 2 in
      let f = Family.random_asymmetric rng n in
      let inst = Dsym.make_instance ~n ~r (Family.dsym_graph f r) in
      let trials = if n <= 64 then 40 else 20 in
      let yes = est ~protocol:"dsym" ~n ~prover:"honest" ~trials (fun seed -> Dsym.run ~seed inst Dsym.honest) in
      let no =
        (* The perturbed instance is derived from the trial seed, never from
           a shared rng: trial functions must be pure in their seed for the
           parallel engine to be deterministic. *)
        est ~protocol:"dsym" ~n ~prover:"consistent" ~trials (fun seed ->
            let bad = Dsym.make_instance ~n ~r (Family.dsym_perturbed (Rng.create (31 + seed)) f r) in
            Dsym.run ~seed bad dsym_consistent)
      in
      let lcp = Pls.Lcp_sym.advice_bits (Family.dsym_graph f r) in
      Printf.printf "%6d %9d | %13d %13.0f %8.0fx | %9.3f %9.3f\n" n
        ((2 * n) + (2 * r) + 1)
        lcp yes.Engine.mean_bits
        (float_of_int lcp /. yes.Engine.mean_bits)
        (rate_of yes) (rate_of no))
    [ 8; 16; 32; 64; 128 ];
  print_endline "\nShape: the ratio column grows ~ n^2/log n — the exponential separation in proof size."

(* --- E4: Theorem 1.4 — the Omega(log log n) packing lower bound ------------------ *)

let e4 () =
  header "E4  Theorem 1.4: packing lower bound for Sym (Section 3.4)";
  print_endline "Packing curve (log-space): family F(n) of asymmetric pairwise non-isomorphic graphs";
  Printf.printf "%14s | %16s | %14s\n" "n" "log2 |F(n)|" "min length L";
  List.iter
    (fun n ->
      match Ids_lowerbound.Packing.lower_bound_table [ n ] with
      | [ (_, logf, l) ] -> Printf.printf "%14d | %16.0f | %14d\n" n logf l
      | _ -> assert false)
    [ 10; 100; 1_000; 10_000; 1_000_000; 1_000_000_000; 1_000_000_000_000 ];
  print_endline "\nL grows like log log n: 5^(2^(2^L)) must exceed |F(n)| (Lemmas 3.11 + 3.12).";

  (* The executable toy rendering. *)
  let rng = Rng.create 4 in
  let fam = Array.of_list (Family.asymmetric_family rng ~n:6 ~size:6) in
  let module T = Ids_lowerbound.Toy_protocol in
  let lmin = T.min_correct_length fam in
  Printf.printf "\nToy fingerprint protocol over |F| = %d asymmetric 6-vertex sides:\n" (Array.length fam);
  let t = T.make fam ~length:lmin in
  Printf.printf "  L = %d: correct = %b (Lemma 3.11 check: min pairwise L1 = %.2f >= 2/3)\n" lmin
    (T.correct t)
    (let m = T.pairwise_l1 t in
     let best = ref 2. in
     Array.iteri (fun i row -> Array.iteri (fun j d -> if i <> j && d < !best then best := d) row) m;
     !best);
  let t' = T.make fam ~length:(lmin - 1) in
  (match T.colliding_pair t' with
  | Some (i, j) ->
    Printf.printf "  L = %d: pigeonhole collision (F_%d, F_%d); mu distance %.2f; cheater acceptance %.2f\n"
      (lmin - 1) i j
      (Ids_lowerbound.Dist.l1_distance (T.mu_a t' i) (T.mu_a t' j))
      (T.acceptance t' i j);
    Printf.printf "  G(F_%d, F_%d) symmetric = %b (a NO instance accepted => protocol incorrect: %b)\n" i j
      (Iso.is_symmetric (Family.dumbbell fam.(i) fam.(j)))
      (not (T.correct t'))
  | None -> print_endline "  (unexpected: no collision)");
  Printf.printf "  Lemma 3.7 transformation: simple length 4L = %d, decisions preserved = %b\n"
    (T.simple_length t) (T.simple_agrees t);
  (* The dumbbell ground truth behind the whole section. *)
  let ok = ref true in
  Array.iteri
    (fun i fi ->
      Array.iteri
        (fun j fj -> if Iso.is_symmetric (Family.dumbbell fi fj) <> (i = j) then ok := false)
        fam)
    fam;
  Printf.printf "  dumbbell G(F_i,F_j) symmetric iff i = j over all %dx%d pairs: %b\n" (Array.length fam)
    (Array.length fam) !ok

(* --- E5: Theorem 1.5 — GNI in dAMAM[O(n log n)] ---------------------------------- *)

let e5 () =
  header "E5  Theorem 1.5: GNI in dAMAM[O(n log n)]  (distributed Goldwasser-Sipser)";
  Printf.printf "%3s | %9s %9s | %9s %9s | %12s %9s\n" "n" "YES rate" ">=bound" "NO rate" "<=bound"
    "bits/rep" "q";
  let rng = Rng.create 5 in
  List.iter
    (fun n ->
      let yes = Gni.yes_instance rng n and no = Gni.no_instance rng n in
      let params = Gni.params_for ~seed:7 yes in
      let reps = if n <= 6 then 400 else 250 in
      let yes_est =
        est ~protocol:"gni_single" ~n ~prover:"honest-yes" ~trials:reps (fun seed ->
            Gni.run_single ~params ~seed yes Gni.honest)
      in
      let no_est =
        est ~protocol:"gni_single" ~n ~prover:"honest-no" ~trials:reps (fun seed ->
            Gni.run_single ~params ~seed no Gni.honest)
      in
      Printf.printf "%3d | %9.3f %9.3f | %9.3f %9.3f | %12.0f %9d\n" n (rate_of yes_est)
        (Gni.yes_rate_bound params) (rate_of no_est) (Gni.no_rate_bound params) yes_est.Engine.mean_bits
        params.Gs.q)
    [ 6; 7 ];
  print_endline "\nFull amplified protocol (t = 400 repetitions, per-node counting):";
  let yes = Gni.yes_instance rng 6 and no = Gni.no_instance rng 6 in
  let params = Gni.params_for ~repetitions:400 ~seed:8 yes in
  let yes_full =
    est ~protocol:"gni_full_run" ~n:6 ~prover:"honest-yes" ~trials:3 (fun seed ->
        Gni.run ~params ~seed yes Gni.honest)
  in
  let no_full =
    est ~protocol:"gni_full_run" ~n:6 ~prover:"honest-no" ~trials:3 (fun seed ->
        Gni.run ~params ~seed no Gni.honest)
  in
  Printf.printf "  YES verdicts: %d/%d accept (need > 2/3)    NO verdicts: %d/%d accept (need < 1/3)\n"
    yes_full.Engine.accepts yes_full.Engine.trials no_full.Engine.accepts no_full.Engine.trials;
  Printf.printf "  total bits/node: %.0f (= t x O(n log n); threshold %d/%d)\n" yes_full.Engine.mean_bits
    params.Gs.threshold params.Gs.repetitions

(* --- E6: Theorem 3.2 — the linear hash family ------------------------------------- *)

let e6 () =
  header "E6  Theorem 3.2: linear hash family (collision probability vs m/p)";
  Printf.printf "%4s | %10s | %12s %12s | %10s\n" "n" "p" "measured" "m/p bound" "linearity";
  let rng = Rng.create 6 in
  List.iter
    (fun n ->
      let g = Family.random_asymmetric rng n in
      let p = Ids_bignum.Prime.random_prime_in_int rng (10 * n * n * n) (100 * n * n * n) in
      let f = Ids_hash.Field.int_field p in
      let rho = Perm.random_nonidentity rng n in
      let trials = 20_000 in
      let collisions = ref 0 in
      for _ = 1 to trials do
        let a = f.Ids_hash.Field.random rng in
        if Ids_hash.Linear.graph_hash f a g = Ids_hash.Linear.permuted_graph_hash f a g rho then
          incr collisions
      done;
      let lin_ok = ref true in
      for _ = 1 to 200 do
        let a = f.Ids_hash.Field.random rng in
        let s1 = Graph.closed_neighborhood g 0 and s2 = Graph.closed_neighborhood g 1 in
        let h1 = Ids_hash.Linear.row_hash f a ~n ~row:0 s1
        and h2 = Ids_hash.Linear.row_hash f a ~n ~row:1 s2 in
        let whole = Ids_hash.Linear.matrix_hash f a ~n [ (0, s1); (1, s2) ] in
        if whole <> f.Ids_hash.Field.add h1 h2 then lin_ok := false
      done;
      Printf.printf "%4d | %10d | %12.6f %12.6f | %10b\n" n p
        (float_of_int !collisions /. float_of_int trials)
        (Ids_hash.Linear.collision_bound ~n ~p)
        !lin_ok)
    [ 8; 12; 16 ]

(* --- E7: Section 4 — the eps-API hash --------------------------------------------- *)

let e7 () =
  header "E7  Section 4: eps-almost pairwise independent hash (ablation over inner copies k)";
  Printf.printf "%3s | %14s | %14s %14s | %12s\n" "k" "eps (analytic)" "pair-coll" "(1+eps)/q" "marginal dev";
  let rng = Rng.create 7 in
  let q = Ids_bignum.Prime.random_prime_in_int rng (4 * 720) (8 * 720) in
  let f = Ids_hash.Field.int_field q in
  let g1 = Family.random_asymmetric rng 6 and g2 = Family.random_asymmetric rng 6 in
  List.iter
    (fun k ->
      let trials = 60_000 in
      let collisions = ref 0 in
      let buckets = Array.make 8 0 in
      for _ = 1 to trials do
        let spec = Ids_hash.Api.random_spec f ~k rng in
        let h1 = Ids_hash.Api.hash_graph f spec g1 and h2 = Ids_hash.Api.hash_graph f spec g2 in
        if h1 = h2 then incr collisions;
        buckets.(h1 * 8 / q) <- buckets.(h1 * 8 / q) + 1
      done;
      let eps = Ids_hash.Api.epsilon f ~n:6 ~k ~q:(float_of_int q) in
      let dev =
        let e = float_of_int trials /. 8. in
        Array.fold_left (fun acc c -> Float.max acc (Float.abs (float_of_int c -. e) /. e)) 0. buckets
      in
      Printf.printf "%3d | %14.4f | %14.6f %14.6f | %11.3f%%\n" k eps
        (float_of_int !collisions /. float_of_int trials)
        ((1. +. eps) /. float_of_int q)
        (100. *. dev))
    [ 1; 2; 3 ];
  print_endline "\nk = 3 (the protocol default) pushes eps far below 1, which the GS gap needs;";
  print_endline "k = 1 shows why a single linear copy is not almost-pairwise-independent enough."

(* --- E8: Definition 2 — correctness thresholds across all protocols ----------------- *)

let e8 () =
  header "E8  Definition 2: acceptance thresholds (YES > 2/3, NO < 1/3) for every protocol";
  Printf.printf "%-28s | %12s %15s | %12s %15s | %s\n" "protocol" "YES accept" "95% CI" "NO accept"
    "95% CI" "adversary";
  let rng = Rng.create 8 in
  let yes_g = Family.random_symmetric rng 16 and no_g = Family.random_asymmetric rng 16 in
  let row name yes no adversary =
    Printf.printf "%-28s | %12.3f %15s | %12.3f %15s | %s\n" name (rate_of yes) (ci yes) (rate_of no)
      (ci no) adversary
  in
  let yes =
    est ~protocol:"sym_dmam" ~n:16 ~prover:"honest" ~trials:80 (fun seed ->
        Sym_dmam.run ~seed yes_g Sym_dmam.honest)
  in
  let no =
    est ~protocol:"sym_dmam" ~n:16 ~prover:"random-perm" ~trials:80 (fun seed ->
        Sym_dmam.run ~seed no_g dmam_random_perm)
  in
  row "Sym dMAM (Protocol 1)" yes no "random non-identity perm";
  let yes2 =
    est ~protocol:"sym_dam" ~n:16 ~prover:"honest" ~trials:20 (fun seed ->
        Sym_dam.run ~seed yes_g Sym_dam.honest)
  in
  let no2 =
    est ~protocol:"sym_dam" ~n:16 ~prover:"search" ~trials:20 (fun seed ->
        Sym_dam.run ~seed no_g dam_search)
  in
  row "Sym dAM (Protocol 2)" yes2 no2 "post-challenge search";
  let f = Family.random_asymmetric rng 8 in
  let inst = Dsym.make_instance ~n:8 ~r:2 (Family.dsym_graph f 2) in
  let yes3 =
    est ~protocol:"dsym" ~n:8 ~prover:"honest" ~trials:60 (fun seed -> Dsym.run ~seed inst Dsym.honest)
  in
  let no3 =
    est ~protocol:"dsym" ~n:8 ~prover:"consistent" ~trials:60 (fun seed ->
        let bad = Dsym.make_instance ~n:8 ~r:2 (Family.dsym_perturbed (Rng.create (83 + seed)) f 2) in
        Dsym.run ~seed bad dsym_consistent)
  in
  row "DSym dAM" yes3 no3 "consistent play on NO";
  let gy = Gni.yes_instance rng 6 and gn = Gni.no_instance rng 6 in
  let params = Gni.params_for ~repetitions:400 ~seed:9 gy in
  let yes4 =
    est ~protocol:"gni" ~n:6 ~prover:"honest-yes" ~trials:3 (fun seed -> Gni.run ~params ~seed gy Gni.honest)
  in
  let no4 =
    est ~protocol:"gni" ~n:6 ~prover:"honest-no" ~trials:3 (fun seed -> Gni.run ~params ~seed gn Gni.honest)
  in
  row "GNI dAMAM (amplified)" yes4 no4 "optimal preimage search";
  let adv = Option.get (Pls.Lcp_sym.honest yes_g) in
  Printf.printf "%-28s | %12.3f %15s | %12.3f %15s | %s\n" "Sym LCP (distributed NP)"
    (if (Pls.Lcp_sym.verify yes_g adv).Pls.accepted then 1.0 else 0.0)
    "(determ.)"
    (match Pls.Lcp_sym.honest no_g with Some _ -> 1.0 | None -> 0.0)
    "(determ.)" "no witness exists";
  print_endline "\nSPRT early stopping (alpha = beta = 1e-3) on the same threshold questions:";
  let sprt name ~prover run =
    if Obs.enabled () then Obs.reset_metrics ();
    let e, d = Stats.threshold_ci ~max_trials:(scaled 400) run in
    Runlog.log ?metrics:(metrics_snapshot ()) ~protocol:"sym_dmam_sprt" ~n:16 ~prover e;
    Printf.printf "  %-24s: decided %s after %d trials (rate %.3f, budget %d)\n" name
      (match d with
      | Some Ids_engine.Sprt.Above -> "rate >= 2/3"
      | Some Ids_engine.Sprt.Below -> "rate <= 1/3"
      | None -> "nothing (undecided)")
      e.Engine.trials e.Engine.rate (scaled 400)
  in
  sprt "Protocol 1, YES instance" ~prover:"honest" (fun seed -> Sym_dmam.run ~seed yes_g Sym_dmam.honest);
  sprt "Protocol 1, NO instance" ~prover:"random-perm" (fun seed ->
      Sym_dmam.run ~seed no_g dmam_random_perm)

(* --- E9: unrestricted GNI (automorphism compensation) ------------------------------- *)

let e9 () =
  header "E9  Extension: unrestricted GNI via automorphism compensation (Goldwasser-Sipser fix)";
  let rng = Rng.create 9 in
  let yes = Gni_full.yes_instance rng 6 and no = Gni_full.no_instance rng 6 in
  Printf.printf "instances use a SYMMETRIC G_0 (|Aut| = %d) — outside Gni's restriction\n"
    (List.length (Lazy.force yes.Gni_full.aut0));
  Printf.printf "candidate-set sizes: YES |S| = %d (= 2 x 6!)   NO |S| = %d (= 6!)\n"
    (Array.length (Gs.candidates yes.Gni_full.core))
    (Array.length (Gs.candidates no.Gni_full.core));
  let params = Gni_full.params_for ~seed:7 yes in
  let rate inst prover =
    (est ~protocol:"gni_full" ~n:6 ~prover:"varied" ~trials:300 (fun seed ->
         Gni_full.run_single ~params ~seed inst prover))
      .Engine.rate
  in
  Printf.printf "single-rep rates: YES %.3f (bound >= %.3f)   NO %.3f (bound <= %.3f)\n"
    (rate yes Gni_full.honest) params.Gs.yes_bound (rate no Gni_full.honest)
    params.Gs.no_bound;
  Printf.printf "fake-automorphism adversary on NO: %.3f (audit round catches every forged alpha)\n"
    (rate no Gni_full.adversary_fake_automorphism);
  let p400 = Gni_full.params_for ~repetitions:400 ~seed:7 yes in
  let oy = Gni_full.run ~params:p400 ~seed:1 yes Gni_full.honest in
  let onn = Gni_full.run ~params:p400 ~seed:1 no Gni_full.honest in
  Printf.printf "amplified verdicts: YES %s, NO %s; %d bits/node total\n"
    (if oy.Outcome.accepted then "ACCEPT" else "REJECT")
    (if onn.Outcome.accepted then "ACCEPT" else "REJECT")
    oy.Outcome.max_bits_per_node

(* --- E10: RPLS verification compression + amplification ablation --------------------- *)

let e10 () =
  header "E10 Extension: randomized PLS (related work [4]) and amplification ablation";
  print_endline "RPLS for Sym: advice unchanged, neighbor verification compressed exponentially";
  Printf.printf "%6s | %14s | %16s %16s | %10s\n" "n" "advice b/node" "verify b/edge" "deterministic"
    "accept";
  let rng = Rng.create 10 in
  List.iter
    (fun n ->
      let g = Family.random_symmetric rng n in
      let advice = Option.get (Pls.Lcp_sym.honest g) in
      let v = Rpls.verify_sym ~seed:3 g advice in
      Printf.printf "%6d | %14d | %16d %16d | %10b\n" n v.Rpls.advice_bits_per_node
        v.Rpls.verification_bits_per_edge
        (Rpls.deterministic_verification_bits g)
        v.Rpls.accepted)
    [ 16; 32; 64 ];
  print_endline "(the advice column still grows as n^2 — RPLS does not subsume interaction)";
  print_endline "\nAmplification: Protocol 1 repeated with majority vote (Hoeffding-sized)";
  Printf.printf "%8s | %10s %10s\n" "delta" "trials t" "threshold";
  List.iter
    (fun delta ->
      let t, tau = Amplify.trials_for ~yes_rate:(2. /. 3.) ~no_rate:(1. /. 3.) ~delta in
      Printf.printf "%8.0e | %10d %10d\n" delta t tau)
    [ 0.1; 0.01; 1e-4; 1e-9 ];
  let yes_g = Family.random_symmetric rng 12 and no_g = Family.random_asymmetric rng 12 in
  let yes = Amplify.majority ~trials:15 (fun seed -> Sym_dmam.run ~seed yes_g Sym_dmam.honest) in
  let no = Amplify.majority ~trials:15 (fun seed -> Sym_dmam.run ~seed no_g dmam_random_perm) in
  Printf.printf "15x Protocol 1, n = 12: YES %s (%d/15), NO %s (%d/15), %d bits/node total\n"
    (if yes.Amplify.outcome.Outcome.accepted then "ACCEPT" else "REJECT")
    yes.Amplify.accepts
    (if no.Amplify.outcome.Outcome.accepted then "ACCEPT" else "REJECT")
    no.Amplify.accepts yes.Amplify.outcome.Outcome.max_bits_per_node

(* --- E11: the marked-subgraph GNI variant (Section 2.3) ------------------------------ *)

let e11 () =
  header "E11 Extension: marked-subgraph GNI (Section 2.3's alternative formulation)";
  let rng = Rng.create 11 in
  let yes = Gni_induced.yes_instance rng 10 and no = Gni_induced.no_instance rng 10 in
  Printf.printf "network: %d nodes; marked classes of size %d induce P4 vs K1,3 (both symmetric)\n"
    (Graph.n yes.Gni_induced.g) yes.Gni_induced.k;
  Printf.printf "candidate sets: YES |S| = %d (= 2 P(10,4))   NO |S| = %d (= P(10,4))\n"
    (Array.length (Gs.candidates yes.Gni_induced.core))
    (Array.length (Gs.candidates no.Gni_induced.core));
  let params = Gni_induced.params_for ~seed:3 yes in
  let rate inst =
    (est ~protocol:"gni_induced" ~n:10 ~prover:"honest" ~trials:250 (fun seed ->
         Gni_induced.run_single ~params ~seed inst Gni_induced.honest))
      .Engine.rate
  in
  Printf.printf "single-rep rates: YES %.3f (bound >= %.3f)   NO %.3f (bound <= %.3f)\n"
    (rate yes) params.Gs.yes_bound (rate no) params.Gs.no_bound;
  let p = Gni_induced.params_for ~repetitions:300 ~seed:3 yes in
  let oy = Gni_induced.run ~params:p ~seed:1 yes Gni_induced.honest in
  let onn = Gni_induced.run ~params:p ~seed:1 no Gni_induced.honest in
  Printf.printf "amplified verdicts: YES %s, NO %s; %d bits/node total\n"
    (if oy.Outcome.accepted then "ACCEPT" else "REJECT")
    (if onn.Outcome.accepted then "ACCEPT" else "REJECT")
    oy.Outcome.max_bits_per_node;
  print_endline "\nContrast case from the introduction: bipartiteness has a 1-bit PLS";
  Printf.printf "%6s | %18s | %18s\n" "n" "bipartite advice" "Sym LCP advice";
  List.iter
    (fun n ->
      let g = Graph.complete_bipartite (n / 2) (n - (n / 2)) in
      let adv = Option.get (Pls.Lcp_bipartite.honest g) in
      let v = Pls.Lcp_bipartite.verify g adv in
      Printf.printf "%6d | %18d | %18d\n" n v.Pls.advice_bits_per_node (Pls.Lcp_sym.advice_bits g))
    [ 16; 64; 256 ]

(* --- E12: ablation — Protocol 1 soundness vs. hash-field size ------------------------- *)

let e12 () =
  header "E12 Ablation: Protocol 1 soundness error vs. prime size (why p ~ n^3)";
  print_endline "Exact acceptance probability of a committed cheat (best over transpositions +";
  print_endline "20 random permutations) on an asymmetric n = 10 graph, as the field shrinks:";
  Printf.printf "%12s | %10s | %16s | %12s\n" "p range" "p" "best adversary" "m/p bound";
  let rng = Rng.create 12 in
  let g = Family.random_asymmetric rng 10 in
  let n = 10 in
  let m = (n * n) + n in
  List.iter
    (fun (label, lo, hi) ->
      let p = Ids_bignum.Prime.random_prime_in_int rng lo hi in
      let params = { Sym_dmam.p; field = Ids_hash.Field.int_field p } in
      let best = Sym_dmam.best_adversary_bound ~sample:20 ~seed:5 params g in
      Printf.printf "%12s | %10d | %16.4f | %12.4f\n" label p best
        (Float.min 1. (float_of_int m /. float_of_int p)))
    [ ("~n", n, 4 * n);
      ("~n^2", n * n, 4 * n * n);
      ("~n^3 (paper)", 10 * n * n * n, 100 * n * n * n);
      ("~n^4", 10 * n * n * n * n, 100 * n * n * n * n)
    ];
  print_endline "\nBelow ~n^2 the difference polynomial can vanish on a large fraction of the";
  print_endline "field and cheats slip through; the paper's 10n^3..100n^3 window drives the";
  print_endline "error under 1/(9n) while keeping the index at O(log n) bits."

(* --- E13: robustness — degradation under injected network faults --------------------- *)

let e13 () =
  let module Fault = Ids_network.Fault in
  let module Sweep = Ids_engine.Sweep in
  header "E13 Robustness: completeness/soundness degradation under network faults";
  print_endline "Acceptance rate of every registry case (Adversary.cases) under a grid of";
  print_endline "fault specs (IDS_FAULT_SPEC appends one more). Completeness should degrade";
  print_endline "gracefully with the rates; soundness only improves (faults add reasons to";
  print_endline "reject); equivocation must drive every connected-graph run to reject.";
  let grid =
    [ Fault.none;
      Fault.drop_only 0.01;
      Fault.drop_only 0.05;
      Fault.drop_only 0.2;
      Fault.corrupt_only 0.01;
      Fault.corrupt_only 0.05;
      Fault.corrupt_only 0.2;
      Fault.crash_only 0.05;
      Fault.crash_only ~crash_mode:Fault.Crash_vacuous 0.05;
      Fault.equivocate_only
    ]
    @ (match Fault.of_env () with Some s when not (Fault.is_none s) -> [ s ] | _ -> [])
  in
  let trials = scaled 25 in
  List.iter
    (fun (c : Adversary.case) ->
      Printf.printf "\n%s / %s (%s, n = %d):\n" c.Adversary.protocol c.Adversary.strategy
        (Adversary.kind_to_string c.Adversary.kind) c.Adversary.n;
      Printf.printf "  %-36s | %7s %15s | %10s\n" "fault" "acc" "95% CI" "bits/node";
      let points =
        Sweep.run ~protocol:c.Adversary.protocol ~n:c.Adversary.n
          ~prover:(Printf.sprintf "%s:%s" (Adversary.kind_to_string c.Adversary.kind) c.Adversary.strategy)
          ~trials ~label:Fault.to_string ~specs:grid
          (fun spec seed -> Stats.trial_of_outcome (c.Adversary.run ~fault:spec seed))
      in
      List.iter
        (fun (p : _ Sweep.point) ->
          Printf.printf "  %-36s | %7.3f %15s | %10.1f\n" p.Sweep.label (rate_of p.Sweep.estimate)
            (ci p.Sweep.estimate) p.Sweep.estimate.Engine.mean_bits)
        points)
    (Adversary.cases ());
  print_endline "\nShape: the fault=none row reproduces the clean completeness/soundness rates";
  print_endline "bit-for-bit; the bits/node column is constant down each block (the ledger";
  print_endline "records what the prover transmits, delivered or not)."

(* --- E15: observability — the tracing layer's per-round profile ----------------------- *)

let e15 () =
  header "E15 Observability: per-round bit profile from the tracing layer (IDS_TRACE)";
  print_endline "Tracing forced on for this experiment; each table is one protocol family's";
  print_endline "metrics snapshot, averaged over the estimate's trials. The per-round sums";
  print_endline "come from the same program points as the Cost ledger, so they add up to the";
  print_endline "bits columns of E1..E5 exactly (pinned by test_obs).";
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let find name (s : Obs.snapshot) = List.find_opt (fun c -> c.Obs.cname = name) s.Obs.counters in
  let total name s = match find name s with Some c -> c.Obs.total | None -> 0 in
  let profile title ~protocol ~n ~prover ~trials run =
    Obs.reset_metrics ();
    let e = est ~protocol ~n ~prover ~trials run in
    let s = Obs.snapshot () in
    let t = float_of_int e.Engine.trials in
    Printf.printf "\n%s  (n = %d, %d trials): accept %.3f %s, %.1f bits/node (max)\n" title n
      e.Engine.trials (rate_of e) (ci e) e.Engine.mean_bits;
    Printf.printf "  per trial: %.1f bits prover->nodes, %.1f bits nodes->prover, %.1f challenge draws\n"
      (float_of_int (total "net.from_prover_bits" s) /. t)
      (float_of_int (total "net.to_prover_bits" s) /. t)
      (float_of_int (total "net.challenge_draws" s) /. t);
    (match find "net.from_prover_bits" s with
    | None -> ()
    | Some c ->
      Printf.printf "  %5s | %18s | %14s\n" "round" "bits/trial (down)" "max node cell";
      List.iter
        (fun (r : Obs.round_row) ->
          Printf.printf "  %5d | %18.1f | %14d\n" r.Obs.round (float_of_int r.Obs.sum /. t) r.Obs.max_node)
        c.Obs.rounds);
    let pows = total "mont.pow" s in
    if pows > 0 then
      Printf.printf "  Montgomery kernel: %.1f pows, %.1f reductions per trial\n"
        (float_of_int pows /. t)
        (float_of_int (total "mont.redc" s) /. t)
  in
  let rng = Rng.create 15 in
  let sym16 = Family.random_symmetric rng 16 in
  profile "Protocol 1 (Sym dMAM)" ~protocol:"sym_dmam" ~n:16 ~prover:"honest" ~trials:40 (fun seed ->
      Sym_dmam.run ~seed sym16 Sym_dmam.honest);
  profile "Protocol 2 (Sym dAM)" ~protocol:"sym_dam" ~n:16 ~prover:"honest" ~trials:10 (fun seed ->
      Sym_dam.run ~seed sym16 Sym_dam.honest);
  let f8 = Family.random_asymmetric rng 8 in
  let inst = Dsym.make_instance ~n:8 ~r:2 (Family.dsym_graph f8 2) in
  profile "DSym (dAM)" ~protocol:"dsym" ~n:8 ~prover:"honest" ~trials:40 (fun seed ->
      Dsym.run ~seed inst Dsym.honest);
  let gy = Gni.yes_instance rng 6 in
  let gparams = Gni.params_for ~seed:7 gy in
  profile "GNI (dAMAM, single rep)" ~protocol:"gni_single" ~n:6 ~prover:"honest-yes" ~trials:60
    (fun seed -> Gni.run_single ~params:gparams ~seed gy Gni.honest);
  Obs.set_enabled was

(* --- Bechamel timing ----------------------------------------------------------------- *)

let timing () =
  header "Timing (Bechamel, one Test.make per experiment hot path)";
  let open Bechamel in
  let rng = Rng.create 10 in
  let sym16 = Family.random_symmetric rng 16 in
  let asym16 = Family.random_asymmetric rng 16 in
  let f8 = Family.random_asymmetric rng 8 in
  let dsym_inst = Dsym.make_instance ~n:8 ~r:2 (Family.dsym_graph f8 2) in
  let gni_inst = Gni.yes_instance rng 6 in
  let gni_params = Gni.params_for ~seed:1 gni_inst in
  let seed = ref 0 in
  let next () =
    incr seed;
    !seed
  in
  let tests =
    [ Test.make ~name:"e1-dmam-sym-n16"
        (Staged.stage (fun () -> Sym_dmam.run ~seed:(next ()) sym16 Sym_dmam.honest));
      Test.make ~name:"e2-dam-sym-n16"
        (Staged.stage (fun () -> Sym_dam.run ~seed:(next ()) sym16 Sym_dam.honest));
      Test.make ~name:"e3-dsym-n8" (Staged.stage (fun () -> Dsym.run ~seed:(next ()) dsym_inst Dsym.honest));
      Test.make ~name:"e5-gni-single-rep-n6"
        (Staged.stage (fun () -> Gni.run_single ~params:gni_params ~seed:(next ()) gni_inst Gni.honest));
      Test.make ~name:"e6-linear-hash-n16"
        (Staged.stage
           (let f = Ids_hash.Field.int_field 10007 in
            fun () -> Ids_hash.Linear.graph_hash f 1234 sym16));
      Test.make ~name:"e7-api-hash-n6"
        (Staged.stage
           (let f = Ids_hash.Field.int_field 4099 in
            let spec = Ids_hash.Api.random_spec f ~k:3 (Rng.create 1) in
            let g = gni_inst.Gni.g0 in
            fun () -> Ids_hash.Api.hash_graph f spec g));
      Test.make ~name:"e8-lcp-sym-verify-n16"
        (Staged.stage
           (let adv = Option.get (Pls.Lcp_sym.honest sym16) in
            fun () -> Pls.Lcp_sym.verify sym16 adv));
      Test.make ~name:"iso-automorphism-search-n16"
        (Staged.stage (fun () -> Iso.find_nontrivial_automorphism asym16))
    ]
  in
  let grouped = Test.make_grouped ~name:"ids" ~fmt:"%s/%s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  Printf.printf "%-34s | %14s | %8s\n" "benchmark" "time/run" "runs";
  let rows =
    Hashtbl.fold
      (fun name (b : Benchmark.t) acc ->
        let ols =
          Analyze.OLS.ols ~bootstrap:0 ~r_square:false ~responder:"monotonic-clock"
            ~predictors:[| Measure.run |] b.Benchmark.lr
        in
        let ns = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan in
        (name, ns, b.Benchmark.stats.Benchmark.samples) :: acc)
      raw []
  in
  List.iter
    (fun (name, ns, samples) ->
      let time =
        if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "%-34s | %14s | %8d\n" name time samples)
    (List.sort (fun (a, _, _) (b, _, _) -> Stdlib.compare a b) rows)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7); ("e8", e8);
    ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13); ("e15", e15) ]

let () =
  (* Every estimate printed above is also appended, one JSON object per
     line, to the machine-readable run log (IDS_RUNLOG overrides the path;
     IDS_RUNLOG="" disables). *)
  Runlog.open_from_env ~default:"ids_runs.jsonl" ();
  Printf.printf "engine: %d domain(s) (IDS_DOMAINS), trial scale x%d (IDS_TRIALS_SCALE)\n"
    (Engine.default_domains ()) (scaled 1);
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [] ->
    List.iter (fun (_, f) -> f ()) experiments;
    timing ()
  | [ "tables" ] -> List.iter (fun (_, f) -> f ()) experiments
  | [ "timing" ] -> timing ()
  | names ->
    List.iter
      (fun name ->
        let name = String.lowercase_ascii name in
        let name = if name = "faults" then "e13" else name in
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None -> Printf.eprintf "unknown experiment %S (e1..e13, e15, faults, tables, timing)\n" name)
      names);
  Runlog.close ();
  (* With IDS_TRACE=1 the whole run's spans become one Chrome trace
     (IDS_TRACE_OUT overrides the path; empty disables). *)
  ignore (Trace.write_from_env () : string option)
