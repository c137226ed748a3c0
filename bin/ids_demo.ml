(* Command-line driver: run any of the paper's protocols on generated
   instances and inspect verdicts, per-node communication and soundness.

   Examples:
     ids-demo sym -n 32 --seed 7             # Protocol 1 on a symmetric graph
     ids-demo sym -n 32 --asymmetric --adversary random-perm --trials 200
     ids-demo sym-dam -n 12
     ids-demo dsym -n 16 -r 3 --perturb
     ids-demo gni -n 6 --isomorphic --repetitions 400
     ids-demo lcp -n 24
     ids-demo lowerbound -n 1000000 *)

module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Iso = Ids_graph.Iso
module Rng = Ids_bignum.Rng
open Ids_proof
open Cmdliner

let report outcome =
  Printf.printf "verdict      : %s\n" (if outcome.Outcome.accepted then "ACCEPT" else "REJECT");
  Printf.printf "prover       : %s\n" outcome.Outcome.prover;
  Printf.printf "bits/node    : %d (max, challenges + responses)\n" outcome.Outcome.max_bits_per_node;
  Printf.printf "response bits: %d (max)\n" outcome.Outcome.max_response_bits;
  Printf.printf "total bits   : %d\n" outcome.Outcome.total_bits

module Engine = Ids_engine.Engine

let report_estimate what (est : Engine.estimate) =
  Printf.printf "%s: %d/%d accepted (rate %.3f, 95%% CI [%.3f, %.3f]), mean %.1f bits/node, %d domain(s)\n"
    what est.Engine.accepts est.Engine.trials est.Engine.rate est.Engine.ci_low est.Engine.ci_high
    est.Engine.mean_bits est.Engine.domains

(* Common options. *)
let seed_t =
  let doc = "Random seed (drives Arthur's coins and instance generation)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let n_t default =
  let doc = "Instance size parameter." in
  Arg.(value & opt int default & info [ "n"; "size" ] ~doc)

let trials_t =
  let doc = "If positive, estimate the acceptance rate over this many runs." in
  Arg.(value & opt int 0 & info [ "trials" ] ~doc)

(* --- sym (Protocol 1) --------------------------------------------------------- *)

let sym_cmd =
  let asymmetric_t =
    Arg.(value & flag & info [ "asymmetric" ] ~doc:"Use an asymmetric (NO) instance.")
  in
  let adversary_t =
    let doc = "Prover strategy: honest, random-perm, forged-sums, identity, split-broadcast." in
    Arg.(value & opt string "honest" & info [ "adversary" ] ~doc)
  in
  let run seed n asymmetric adversary trials =
    let rng = Rng.create seed in
    let g = if asymmetric then Family.random_asymmetric rng n else Family.random_symmetric rng n in
    Printf.printf "instance: %d nodes, %d edges, symmetric = %b\n" (Graph.n g) (Graph.edge_count g)
      (Iso.is_symmetric g);
    let prover =
      match adversary with
      | "honest" -> Sym_dmam.honest
      | other -> (
        match Adversary.lookup Adversary.sym_dmam other with
        | Ok p -> p
        | Error msg ->
          Printf.eprintf "ids-demo: %s\n" msg;
          exit 2)
    in
    if trials > 0 then
      report_estimate "acceptance" (Stats.acceptance_ci ~trials (fun s -> Sym_dmam.run ~seed:s g prover))
    else report (Sym_dmam.run ~seed g prover)
  in
  let doc = "Protocol 1: dMAM[O(log n)] for Graph Symmetry (Theorem 1.1)." in
  Cmd.v (Cmd.info "sym" ~doc) Term.(const run $ seed_t $ n_t 16 $ asymmetric_t $ adversary_t $ trials_t)

(* --- sym-dam (Protocol 2) ------------------------------------------------------ *)

let sym_dam_cmd =
  let asymmetric_t =
    Arg.(value & flag & info [ "asymmetric" ] ~doc:"Use an asymmetric (NO) instance.")
  in
  let run seed n asymmetric trials =
    let rng = Rng.create seed in
    let g = if asymmetric then Family.random_asymmetric rng n else Family.random_symmetric rng n in
    let prover = if asymmetric then List.assoc "search" Adversary.sym_dam else Sym_dam.honest in
    Printf.printf "instance: %d nodes, symmetric = %b; prime has %d bits\n" (Graph.n g)
      (Iso.is_symmetric g)
      (Ids_bignum.Nat.bit_length (Sym_dam.params_for ~seed g).Sym_dam.p);
    if trials > 0 then
      report_estimate "acceptance" (Stats.acceptance_ci ~trials (fun s -> Sym_dam.run ~seed:s g prover))
    else report (Sym_dam.run ~seed g prover)
  in
  let doc = "Protocol 2: dAM[O(n log n)] for Graph Symmetry (Theorem 1.3)." in
  Cmd.v (Cmd.info "sym-dam" ~doc) Term.(const run $ seed_t $ n_t 10 $ asymmetric_t $ trials_t)

(* --- dsym ----------------------------------------------------------------------- *)

let dsym_cmd =
  let r_t = Arg.(value & opt int 2 & info [ "r"; "path" ] ~doc:"Half path length of the dumbbell.") in
  let perturb_t = Arg.(value & flag & info [ "perturb" ] ~doc:"Use a perturbed (NO) instance.") in
  let run seed n r perturb trials =
    let rng = Rng.create seed in
    let f = Family.random_asymmetric rng n in
    let g = if perturb then Family.dsym_perturbed rng f r else Family.dsym_graph f r in
    let inst = Dsym.make_instance ~n ~r g in
    Printf.printf "instance: %d vertices, DSym member = %b\n" (Graph.n g) (Family.is_dsym_member ~n ~r g);
    let prover = if perturb then List.assoc "consistent" Adversary.dsym else Dsym.honest in
    if trials > 0 then
      report_estimate "acceptance" (Stats.acceptance_ci ~trials (fun s -> Dsym.run ~seed:s inst prover))
    else report (Dsym.run ~seed inst prover)
  in
  let doc = "The dAM[O(log n)] protocol for Dumbbell Symmetry (Theorem 1.2)." in
  Cmd.v (Cmd.info "dsym" ~doc) Term.(const run $ seed_t $ n_t 8 $ r_t $ perturb_t $ trials_t)

(* --- gni ------------------------------------------------------------------------- *)

let gni_cmd =
  let iso_t =
    Arg.(value & flag & info [ "isomorphic" ] ~doc:"Use an isomorphic (NO) instance pair.")
  in
  let reps_t =
    Arg.(value & opt int 400 & info [ "repetitions" ] ~doc:"Parallel repetitions for amplification.")
  in
  let single_t =
    Arg.(value & flag & info [ "single" ] ~doc:"Run one repetition instead of the amplified protocol.")
  in
  let run seed n isomorphic reps single trials =
    let rng = Rng.create seed in
    let inst = if isomorphic then Gni.no_instance rng n else Gni.yes_instance rng n in
    let params = Gni.params_for ~repetitions:reps ~seed inst in
    Printf.printf "instance: two %d-vertex graphs, isomorphic = %b\n" n
      (Iso.are_isomorphic inst.Gni.g0 inst.Gni.g1);
    Printf.printf "params: q = %d, k = %d, t = %d, threshold = %d, bounds %.3f / %.3f\n" params.Gs.q
      params.Gs.copies params.Gs.repetitions params.Gs.threshold (Gni.yes_rate_bound params)
      (Gni.no_rate_bound params);
    let exec s = if single then Gni.run_single ~params ~seed:s inst Gni.honest else Gni.run ~params ~seed:s inst Gni.honest in
    if trials > 0 then report_estimate "acceptance" (Stats.acceptance_ci ~trials exec)
    else report (exec seed)
  in
  let doc = "The dAMAM[O(n log n)] Goldwasser-Sipser protocol for GNI (Theorem 1.5)." in
  Cmd.v (Cmd.info "gni" ~doc)
    Term.(const run $ seed_t $ n_t 6 $ iso_t $ reps_t $ single_t $ trials_t)

(* --- gni-full ---------------------------------------------------------------------- *)

let gni_full_cmd =
  let iso_t =
    Arg.(value & flag & info [ "isomorphic" ] ~doc:"Use an isomorphic (NO) instance pair.")
  in
  let reps_t =
    Arg.(value & opt int 400 & info [ "repetitions" ] ~doc:"Parallel repetitions for amplification.")
  in
  let run seed n isomorphic reps trials =
    let rng = Rng.create seed in
    let inst = if isomorphic then Gni_full.no_instance rng n else Gni_full.yes_instance rng n in
    let params = Gni_full.params_for ~repetitions:reps ~seed inst in
    Printf.printf "instance: two %d-vertex graphs, |Aut(G0)| = %d, isomorphic = %b, |S| = %d\n" n
      (List.length (Lazy.force inst.Gni_full.aut0))
      (Iso.are_isomorphic inst.Gni_full.g0 inst.Gni_full.g1)
      (Array.length (Gs.candidates inst.Gni_full.core));
    let exec s = Gni_full.run ~params ~seed:s inst Gni_full.honest in
    if trials > 0 then report_estimate "acceptance" (Stats.acceptance_ci ~trials exec)
    else report (exec seed)
  in
  let doc = "Unrestricted GNI (automorphism compensation) — works on symmetric graphs." in
  Cmd.v (Cmd.info "gni-full" ~doc) Term.(const run $ seed_t $ n_t 6 $ iso_t $ reps_t $ trials_t)

(* --- gni-induced ------------------------------------------------------------------- *)

let gni_induced_cmd =
  let iso_t =
    Arg.(value & flag & info [ "isomorphic" ] ~doc:"Plant two copies of the same side (NO instance).")
  in
  let reps_t =
    Arg.(value & opt int 300 & info [ "repetitions" ] ~doc:"Parallel repetitions for amplification.")
  in
  let run seed n isomorphic reps trials =
    let rng = Rng.create seed in
    let inst =
      if isomorphic then Gni_induced.no_instance rng n else Gni_induced.yes_instance rng n
    in
    let params = Gni_induced.params_for ~repetitions:reps ~seed inst in
    Printf.printf
      "instance: %d-node network, marked classes of %d; induced subgraphs isomorphic = %b; |S| = %d\n"
      n inst.Gni_induced.k
      (Iso.are_isomorphic inst.Gni_induced.h0 inst.Gni_induced.h1)
      (Array.length (Gs.candidates inst.Gni_induced.core));
    let exec s = Gni_induced.run ~params ~seed:s inst Gni_induced.honest in
    if trials > 0 then report_estimate "acceptance" (Stats.acceptance_ci ~trials exec)
    else report (exec seed)
  in
  let doc = "Marked-subgraph GNI (Section 2.3): induced 0-class vs 1-class subgraphs." in
  Cmd.v (Cmd.info "gni-induced" ~doc) Term.(const run $ seed_t $ n_t 10 $ iso_t $ reps_t $ trials_t)

(* --- lcp ------------------------------------------------------------------------- *)

let lcp_cmd =
  let run seed n =
    let rng = Rng.create seed in
    let g = Family.random_symmetric rng n in
    (match Pls.Lcp_sym.honest g with
    | Some advice ->
      let v = Pls.Lcp_sym.verify g advice in
      Printf.printf "LCP for Sym on %d nodes: %s, %d advice bits per node (Theta(n^2))\n" n
        (if v.Pls.accepted then "verified" else "REJECTED")
        v.Pls.advice_bits_per_node
    | None -> print_endline "no advice (graph asymmetric)");
    let o = Sym_dmam.run ~seed g Sym_dmam.honest in
    Printf.printf "Protocol 1 on the same instance: %d bits per node — %.0fx less\n"
      o.Outcome.max_bits_per_node
      (float_of_int (Pls.Lcp_sym.advice_bits g) /. float_of_int o.Outcome.max_bits_per_node)
  in
  let doc = "The distributed-NP baseline (locally checkable proof) vs Protocol 1." in
  Cmd.v (Cmd.info "lcp" ~doc) Term.(const run $ seed_t $ n_t 24)

(* --- lowerbound -------------------------------------------------------------------- *)

let lowerbound_cmd =
  let run n =
    let module P = Ids_lowerbound.Packing in
    Printf.printf "n = %d\n" n;
    Printf.printf "log2 |F(n)|            = %.0f\n" (P.log2_family_size n);
    Printf.printf "Theorem 1.4 floor L    = %d bits\n" (P.min_protocol_length n);
    Printf.printf "log2 (packing bound 5^d) at d = 2^(2^L): L=3 -> %.0f, L=4 -> %.0f\n"
      (P.log2_packing_bound ~d:(1 lsl 8))
      (P.log2_packing_bound ~d:(1 lsl 16))
  in
  let doc = "The Omega(log log n) packing lower bound of Theorem 1.4." in
  Cmd.v (Cmd.info "lowerbound" ~doc) Term.(const run $ n_t 1_000_000)

let main_cmd =
  let doc = "Interactive distributed proofs (Kol-Oshman-Saxena, PODC 2018)" in
  let info = Cmd.info "ids-demo" ~version:"1.0.0" ~doc in
  Cmd.group info [ sym_cmd; sym_dam_cmd; dsym_cmd; gni_cmd; gni_full_cmd; gni_induced_cmd; lcp_cmd; lowerbound_cmd ]

let () = exit (Cmd.eval main_cmd)
