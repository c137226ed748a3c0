(* Pins for the row hash of Theorem 3.2 as Protocols 1 and 2 and DSym
   evaluate it (Theorems 1.1-1.3). Every value below was recorded while the
   provers and verifiers still read one (n^2 + n + 1)-entry power table per
   index and Protocol 2's field ran every one-limb operation through the
   Montgomery/Barrett context. The two-table rows and the native one-limb
   path are exact field arithmetic, so not one verdict, bit count, response
   value or search result may move.

   - The outcome matrix: the full Outcome.t of each protocol's honest prover
     and every registry adversary on the catalog instances (plus a
     Sym_dam graph at n = 16, whose prime is multi-limb), seeds 1-3, under
     no faults, drops, corruption, vacuous crashes and a composite spec.
   - Response digests: an accepting verdict cannot see a consistent error
     shared by prover and verifier, so the a/b sums themselves are pinned
     (MD5 of their decimal strings) at fixed per-node challenges.
   - Search tables: Sym_dam's search adversary at the catalog moduli and at
     tiny moduli where it finds colliding tables, with the verdict.
   - Exact acceptance: Protocol 1's exhaustive collision count for one
     transposition. *)

open Ids_proof
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Perm = Ids_graph.Perm
module Fault = Ids_network.Fault
module Field = Ids_hash.Field
module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng

let faults =
  [ ("none", None);
    ("drop0.1", Some (Fault.drop_only 0.1));
    ("corrupt0.01", Some (Fault.corrupt_only 0.01));
    ("crash_vacuous0.05", Some (Fault.crash_only ~crash_mode:Fault.Crash_vacuous 0.05));
    ("composite", Some (Fault.make ~drop:0.1 ~corrupt:0.1 ~crash:0.1 ~equivocate:true ()))
  ]

(* The catalog instances (Adversary.cases) and one multi-limb Sym_dam graph. *)
let dmam_graphs =
  [ ("yes12", Family.random_symmetric (Rng.create 11) 12); ("no12", Family.random_asymmetric (Rng.create 12) 12) ]

let dsym_side = 8
let dsym_r = 2
let dsym_core = Family.random_asymmetric (Rng.create 13) dsym_side
let dsym_yes = Dsym.make_instance ~n:dsym_side ~r:dsym_r (Family.dsym_graph dsym_core dsym_r)

let dsym_instances =
  [ ("yes", fun _seed -> dsym_yes);
    ( "perturbed",
      fun seed ->
        Dsym.make_instance ~n:dsym_side ~r:dsym_r
          (Family.dsym_perturbed (Rng.create (31 + seed)) dsym_core dsym_r) )
  ]

let dam_graphs =
  [ ("yes8", Family.random_symmetric (Rng.create 14) 8);
    ("no8", Family.random_asymmetric (Rng.create 15) 8);
    ("yes16", Family.random_symmetric (Rng.create 21) 16)
  ]

(* (protocol, instance, prover, fault, [(seed, accepted, max_bits_per_node,
   max_response_bits, total_bits)]) *)
let outcome_pins =
  [
  ("sym_dmam", "yes12", "honest", "none", [ (1, true, 80, 64, 960); (2, true, 80, 64, 960); (3, true, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "honest", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "honest", "corrupt0.01", [ (1, true, 80, 64, 960); (2, true, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "honest", "crash_vacuous0.05", [ (1, true, 80, 64, 960); (2, true, 80, 64, 960); (3, true, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "honest", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "yes12", "random-perm", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "random-perm", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "random-perm", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "random-perm", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "random-perm", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "yes12", "forged-sums", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "forged-sums", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "forged-sums", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "forged-sums", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "forged-sums", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "yes12", "identity", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "identity", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "identity", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "identity", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "identity", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "yes12", "split-broadcast", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "split-broadcast", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "split-broadcast", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "split-broadcast", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "yes12", "split-broadcast", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "no12", "honest", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "honest", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "honest", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "honest", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "honest", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "no12", "random-perm", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "random-perm", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "random-perm", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "random-perm", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "random-perm", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "no12", "forged-sums", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "forged-sums", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "forged-sums", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "forged-sums", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "forged-sums", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "no12", "identity", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "identity", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "identity", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "identity", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "identity", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("sym_dmam", "no12", "split-broadcast", "none", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "split-broadcast", "drop0.1", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "split-broadcast", "corrupt0.01", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "split-broadcast", "crash_vacuous0.05", [ (1, false, 80, 64, 960); (2, false, 80, 64, 960); (3, false, 76, 61, 912) ]);
  ("sym_dmam", "no12", "split-broadcast", "composite", [ (1, false, 80, 64, 880); (2, false, 80, 64, 960); (3, false, 76, 61, 836) ]);
  ("dsym", "yes", "honest", "none", [ (1, true, 87, 69, 1827); (2, true, 91, 72, 1911); (3, true, 95, 75, 1995) ]);
  ("dsym", "yes", "honest", "drop0.1", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "honest", "corrupt0.01", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "honest", "crash_vacuous0.05", [ (1, true, 87, 69, 1827); (2, true, 91, 72, 1820); (3, true, 95, 75, 1995) ]);
  ("dsym", "yes", "honest", "composite", [ (1, false, 87, 69, 1740); (2, false, 91, 72, 1820); (3, false, 95, 75, 1900) ]);
  ("dsym", "yes", "consistent", "none", [ (1, true, 87, 69, 1827); (2, true, 91, 72, 1911); (3, true, 95, 75, 1995) ]);
  ("dsym", "yes", "consistent", "drop0.1", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "consistent", "corrupt0.01", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "consistent", "crash_vacuous0.05", [ (1, true, 87, 69, 1827); (2, true, 91, 72, 1820); (3, true, 95, 75, 1995) ]);
  ("dsym", "yes", "consistent", "composite", [ (1, false, 87, 69, 1740); (2, false, 91, 72, 1820); (3, false, 95, 75, 1900) ]);
  ("dsym", "yes", "wrong-permutation", "none", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "wrong-permutation", "drop0.1", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "wrong-permutation", "corrupt0.01", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "wrong-permutation", "crash_vacuous0.05", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1820); (3, false, 95, 75, 1995) ]);
  ("dsym", "yes", "wrong-permutation", "composite", [ (1, false, 87, 69, 1740); (2, false, 91, 72, 1820); (3, false, 95, 75, 1900) ]);
  ("dsym", "perturbed", "honest", "none", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "honest", "drop0.1", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "honest", "corrupt0.01", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "honest", "crash_vacuous0.05", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1820); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "honest", "composite", [ (1, false, 87, 69, 1740); (2, false, 91, 72, 1820); (3, false, 95, 75, 1900) ]);
  ("dsym", "perturbed", "consistent", "none", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "consistent", "drop0.1", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "consistent", "corrupt0.01", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "consistent", "crash_vacuous0.05", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1820); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "consistent", "composite", [ (1, false, 87, 69, 1740); (2, false, 91, 72, 1820); (3, false, 95, 75, 1900) ]);
  ("dsym", "perturbed", "wrong-permutation", "none", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "wrong-permutation", "drop0.1", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "wrong-permutation", "corrupt0.01", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1911); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "wrong-permutation", "crash_vacuous0.05", [ (1, false, 87, 69, 1827); (2, false, 91, 72, 1820); (3, false, 95, 75, 1995) ]);
  ("dsym", "perturbed", "wrong-permutation", "composite", [ (1, false, 87, 69, 1740); (2, false, 91, 72, 1820); (3, false, 95, 75, 1900) ]);
  ("sym_dam", "yes8", "honest", "none", [ (1, true, 173, 138, 1384); (2, true, 173, 138, 1384); (3, true, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "honest", "drop0.1", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "honest", "corrupt0.01", [ (1, false, 173, 138, 1384); (2, true, 173, 138, 1384); (3, true, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "honest", "crash_vacuous0.05", [ (1, true, 173, 138, 1384); (2, true, 173, 138, 1384); (3, true, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "honest", "composite", [ (1, false, 173, 138, 1211); (2, false, 173, 138, 1384); (3, false, 173, 138, 1211) ]);
  ("sym_dam", "yes8", "search", "none", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "search", "drop0.1", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "search", "corrupt0.01", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "search", "crash_vacuous0.05", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "search", "composite", [ (1, false, 173, 138, 1211); (2, false, 173, 138, 1384); (3, false, 173, 138, 1211) ]);
  ("sym_dam", "yes8", "random-perm", "none", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "random-perm", "drop0.1", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "random-perm", "corrupt0.01", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "random-perm", "crash_vacuous0.05", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "yes8", "random-perm", "composite", [ (1, false, 173, 138, 1211); (2, false, 173, 138, 1384); (3, false, 173, 138, 1211) ]);
  ("sym_dam", "no8", "honest", "none", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "honest", "drop0.1", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "honest", "corrupt0.01", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "honest", "crash_vacuous0.05", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "honest", "composite", [ (1, false, 173, 138, 1211); (2, false, 173, 138, 1384); (3, false, 173, 138, 1211) ]);
  ("sym_dam", "no8", "search", "none", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "search", "drop0.1", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "search", "corrupt0.01", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "search", "crash_vacuous0.05", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "search", "composite", [ (1, false, 173, 138, 1211); (2, false, 173, 138, 1384); (3, false, 173, 138, 1211) ]);
  ("sym_dam", "no8", "random-perm", "none", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "random-perm", "drop0.1", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "random-perm", "corrupt0.01", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "random-perm", "crash_vacuous0.05", [ (1, false, 173, 138, 1384); (2, false, 173, 138, 1384); (3, false, 173, 138, 1384) ]);
  ("sym_dam", "no8", "random-perm", "composite", [ (1, false, 173, 138, 1211); (2, false, 173, 138, 1384); (3, false, 173, 138, 1211) ]);
  ("sym_dam", "yes16", "honest", "none", [ (1, true, 392, 313, 6272); (2, true, 392, 313, 6272); (3, true, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "honest", "drop0.1", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "honest", "corrupt0.01", [ (1, false, 392, 313, 6272); (2, true, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "honest", "crash_vacuous0.05", [ (1, true, 392, 313, 6272); (2, true, 392, 313, 6272); (3, true, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "honest", "composite", [ (1, false, 392, 313, 5880); (2, false, 392, 313, 6272); (3, false, 392, 313, 5880) ]);
  ("sym_dam", "yes16", "search", "none", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "search", "drop0.1", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "search", "corrupt0.01", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "search", "crash_vacuous0.05", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "search", "composite", [ (1, false, 392, 313, 5880); (2, false, 392, 313, 6272); (3, false, 392, 313, 5880) ]);
  ("sym_dam", "yes16", "random-perm", "none", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "random-perm", "drop0.1", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "random-perm", "corrupt0.01", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "random-perm", "crash_vacuous0.05", [ (1, false, 392, 313, 6272); (2, false, 392, 313, 6272); (3, false, 392, 313, 6272) ]);
  ("sym_dam", "yes16", "random-perm", "composite", [ (1, false, 392, 313, 5880); (2, false, 392, 313, 6272); (3, false, 392, 313, 5880) ])
  ]

let runner protocol instance prover : ?fault:Fault.spec -> int -> Outcome.t =
  let pick registry = List.assoc prover registry in
  match protocol with
  | "sym_dmam" ->
    let g = List.assoc instance dmam_graphs and p = pick (("honest", Sym_dmam.honest) :: Adversary.sym_dmam) in
    fun ?fault seed -> Sym_dmam.run ?fault ~seed g p
  | "dsym" ->
    let inst = List.assoc instance dsym_instances and p = pick (("honest", Dsym.honest) :: Adversary.dsym) in
    fun ?fault seed -> Dsym.run ?fault ~seed (inst seed) p
  | "sym_dam" ->
    let g = List.assoc instance dam_graphs and p = pick (("honest", Sym_dam.honest) :: Adversary.sym_dam) in
    let params = Sym_dam.params_for ~seed:7 g in
    fun ?fault seed -> Sym_dam.run ?fault ~params ~seed g p
  | _ -> invalid_arg protocol

let test_outcome_pins () =
  (* Every prover of every registry is covered. *)
  let provers protocol = List.sort_uniq compare (List.filter_map (fun (p, _, s, _, _) -> if p = protocol then Some s else None) outcome_pins) in
  Alcotest.(check (list string)) "sym_dmam provers" (List.sort compare ("honest" :: Adversary.names Adversary.sym_dmam)) (provers "sym_dmam");
  Alcotest.(check (list string)) "dsym provers" (List.sort compare ("honest" :: Adversary.names Adversary.dsym)) (provers "dsym");
  Alcotest.(check (list string)) "sym_dam provers" (List.sort compare ("honest" :: Adversary.names Adversary.sym_dam)) (provers "sym_dam");
  List.iter
    (fun (protocol, instance, prover, fname, cells) ->
      let run = runner protocol instance prover and fault = List.assoc fname faults in
      let name = if prover = "honest" then prover else "adversary:" ^ prover in
      List.iter
        (fun (seed, accepted, max_bits_per_node, max_response_bits, total_bits) ->
          let want = { Outcome.accepted; max_bits_per_node; max_response_bits; total_bits; prover = name } in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s %s %s seed=%d outcome pinned" protocol instance prover fname seed)
            true (run ?fault seed = want))
        cells)
    outcome_pins

let digest to_s arrays =
  Digest.to_hex
    (Digest.string (String.concat "|" (List.concat_map (fun a -> Array.to_list (Array.map to_s a)) arrays)))

(* Per-node challenges drawn from fixed generators, independent of Network. *)
let challenges (f : _ Field.t) ~seed n = Array.init n (fun v -> f.Field.random (Rng.create ((seed * 100) + v)))

(* (protocol, instance, prover, seed, MD5 of the a and b arrays) *)
let digest_pins =
  [
    ("sym_dmam", "yes12", "honest", 1, "2026c1e0c1f9cc6ad067ed0afd791350");
    ("sym_dmam", "yes12", "random-perm", 1, "72ce61830482071fc0f68b0082c6a8d9");
    ("sym_dmam", "yes12", "honest", 2, "dbc599d38bf7db5bc8340d07e2243b68");
    ("sym_dmam", "yes12", "random-perm", 2, "c8c85b4542ab9066041ea81103e4dd74");
    ("sym_dmam", "yes12", "honest", 3, "7f9606efa9ce3b89dc191a5a7a4ebaf8");
    ("sym_dmam", "yes12", "random-perm", 3, "d9fd76bfcc3005b166e0189292d7ead9");
    ("sym_dmam", "no12", "honest", 1, "33786507d0b6d16787255967c1f8d570");
    ("sym_dmam", "no12", "random-perm", 1, "06db2d32831493e7da4b75e46484f788");
    ("sym_dmam", "no12", "honest", 2, "ce2a73c552b5cedcb49f3c88a7077619");
    ("sym_dmam", "no12", "random-perm", 2, "df359666a1ac0558b27557889ef504b6");
    ("sym_dmam", "no12", "honest", 3, "c508a5e3b87b34a81ea3697e43610216");
    ("sym_dmam", "no12", "random-perm", 3, "f233b902d1c3838f561000e29b2e3920");
    ("dsym", "yes", "honest", 1, "b645959e9f47749b30c276141d528733");
    ("dsym", "yes", "wrong-permutation", 1, "a633d3292770c201ca576efcb2f0094e");
    ("dsym", "yes", "honest", 2, "60ce6347a2d4b4c95ffb79ee0a4b6883");
    ("dsym", "yes", "wrong-permutation", 2, "e087de8c3514d9ba3bb99bdeed8764cf");
    ("dsym", "yes", "honest", 3, "64a486d9293383581b3937809a025e75");
    ("dsym", "yes", "wrong-permutation", 3, "c89675a3c214ba5c3d6608b2e6511fe6");
    ("sym_dam", "yes8", "honest", 1, "ca510e09f4ebb0dbff4dc8d1be9a3297");
    ("sym_dam", "yes8", "search", 1, "8c8515028e41f9be3a1c3d259f3e0c29");
    ("sym_dam", "yes8", "random-perm", 1, "3cbba61ac6ebd2dd43b63937181ef8ce");
    ("sym_dam", "yes8", "honest", 2, "3d61e39a27548a2262db8d5d58946a65");
    ("sym_dam", "yes8", "search", 2, "0b5e43289e25833e0f01d63dc81bf0b5");
    ("sym_dam", "yes8", "random-perm", 2, "f6d88c9de0cf457e84b44b831c0d4db9");
    ("sym_dam", "yes8", "honest", 3, "3766666a4795a3927e94f17df4c95d5e");
    ("sym_dam", "yes8", "search", 3, "16b533e677062601555a27e5cbf13155");
    ("sym_dam", "yes8", "random-perm", 3, "f61ac6d42c0824ba54fa6dbf9d16471b");
    ("sym_dam", "no8", "honest", 1, "dcee03babc11361e9006851bc8577fbb");
    ("sym_dam", "no8", "search", 1, "dcee03babc11361e9006851bc8577fbb");
    ("sym_dam", "no8", "random-perm", 1, "3d3b6893c69c75bda6f90eb65d6fcd66");
    ("sym_dam", "no8", "honest", 2, "034a54e1acefbbad72919d5cc63c705b");
    ("sym_dam", "no8", "search", 2, "034a54e1acefbbad72919d5cc63c705b");
    ("sym_dam", "no8", "random-perm", 2, "387b53a907d50beefd1bbd5211511014");
    ("sym_dam", "no8", "honest", 3, "2e12f072f1a9889cf3dcbe9899d1c49e");
    ("sym_dam", "no8", "search", 3, "2e12f072f1a9889cf3dcbe9899d1c49e");
    ("sym_dam", "no8", "random-perm", 3, "312d82e95f94452939d83d3e2cabcfdb");
    ("sym_dam", "yes16", "honest", 1, "1d2dbf072b4757d92061f2a7aad68c64");
    ("sym_dam", "yes16", "search", 1, "e6aa02affb9233fbc393e6c027bca523");
    ("sym_dam", "yes16", "random-perm", 1, "99645e84cea8fdf527021be9f5744c4e");
    ("sym_dam", "yes16", "honest", 2, "5873e91084e57aaa07037a224bb6a7dd");
    ("sym_dam", "yes16", "search", 2, "80f041bf20bf72fa42c44e784946bb3d");
    ("sym_dam", "yes16", "random-perm", 2, "03a034d352bf6edecd5a69eb13d8991c");
    ("sym_dam", "yes16", "honest", 3, "49421e6cc36cdd4e62476fae5a7ad6e1");
    ("sym_dam", "yes16", "search", 3, "2bbcaebadb8889194df1967f475cf3a3");
    ("sym_dam", "yes16", "random-perm", 3, "35a0b0d032d817839d58c96fe787cf33")
  ]

let response_digest protocol instance prover seed =
  match protocol with
  | "sym_dmam" ->
    let g = List.assoc instance dmam_graphs in
    let params = Sym_dmam.params_for ~seed g in
    let p = List.assoc prover (("honest", Sym_dmam.honest) :: Adversary.sym_dmam) in
    let ch = challenges params.Sym_dmam.field ~seed (Graph.n g) in
    let r = p.Sym_dmam.respond params g (p.Sym_dmam.commit params g) ch in
    digest string_of_int [ r.Sym_dmam.a; r.Sym_dmam.b ]
  | "dsym" ->
    let params = Dsym.params_for ~seed dsym_yes in
    let p = List.assoc prover (("honest", Dsym.honest) :: Adversary.dsym) in
    let r = p.Dsym.respond params dsym_yes (challenges params.Dsym.field ~seed (Graph.n dsym_yes.Dsym.graph)) in
    digest string_of_int [ r.Dsym.a; r.Dsym.b ]
  | "sym_dam" ->
    let g = List.assoc instance dam_graphs in
    let params = Sym_dam.params_for ~seed:7 g in
    let p = List.assoc prover (("honest", Sym_dam.honest) :: Adversary.sym_dam) in
    let r = p.Sym_dam.respond params g (challenges params.Sym_dam.field ~seed (Graph.n g)) in
    digest Nat.to_string [ r.Sym_dam.a; r.Sym_dam.b ]
  | _ -> invalid_arg protocol

let test_digest_pins () =
  List.iter
    (fun (protocol, instance, prover, seed, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s %s seed=%d response digest" protocol instance prover seed)
        want
        (response_digest protocol instance prover seed))
    digest_pins

(* (instance, seed, table) at the instance's own prime *)
let search_pins =
  [
    ("yes8", 1, [| 1; 0; 2; 3; 4; 5; 6; 7 |]);
    ("yes8", 2, [| 1; 0; 2; 3; 4; 5; 6; 7 |]);
    ("yes8", 3, [| 1; 0; 2; 3; 4; 5; 6; 7 |]);
    ("no8", 1, [| 1; 0; 2; 3; 4; 5; 6; 7 |]);
    ("no8", 2, [| 1; 0; 2; 3; 4; 5; 6; 7 |]);
    ("no8", 3, [| 1; 0; 2; 3; 4; 5; 6; 7 |]);
    ("yes16", 1, [| 1; 0; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |]);
    ("yes16", 2, [| 1; 0; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |]);
    ("yes16", 3, [| 1; 0; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |])
  ]

(* (instance, p, seed, table, accepted) at a tiny prime *)
let tiny_search_pins =
  [
    ("no8", 101, 1, [| 3; 0; 4; 2; 1; 7; 6; 5 |], false);
    ("no8", 101, 2, [| 0; 6; 2; 3; 4; 5; 1; 7 |], true);
    ("no8", 101, 3, [| 1; 0; 2; 3; 4; 5; 6; 7 |], true);
    ("no8", 1009, 1, [| 1; 0; 2; 3; 4; 5; 6; 7 |], false);
    ("no8", 1009, 2, [| 1; 0; 2; 3; 4; 5; 6; 7 |], false);
    ("no8", 1009, 3, [| 1; 0; 2; 3; 4; 5; 6; 7 |], false);
    ("yes16", 101, 1, [| 10; 1; 2; 3; 4; 5; 6; 7; 8; 9; 0; 11; 12; 13; 14; 15 |], true);
    ("yes16", 101, 2, [| 0; 1; 2; 3; 4; 10; 6; 7; 8; 9; 5; 11; 12; 13; 14; 15 |], true);
    ("yes16", 101, 3, [| 0; 6; 2; 3; 4; 5; 1; 7; 8; 9; 10; 11; 12; 13; 14; 15 |], true);
    ("yes16", 1009, 1, [| 1; 0; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |], false);
    ("yes16", 1009, 2, [| 0; 1; 11; 3; 4; 5; 6; 7; 8; 9; 10; 2; 12; 13; 14; 15 |], false);
    ("yes16", 1009, 3, [| 1; 0; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 |], false)
  ]

let test_search_pins () =
  List.iter
    (fun (instance, seed, want) ->
      let g = List.assoc instance dam_graphs in
      let params = Sym_dam.params_for ~seed:7 g in
      let ch = challenges params.Sym_dam.field ~seed (Graph.n g) in
      Alcotest.(check (array int))
        (Printf.sprintf "%s seed=%d search table" instance seed)
        want
        (Sym_dam.search_table ~seed params g ch))
    search_pins;
  List.iter
    (fun (instance, p, seed, want, accepted) ->
      let g = List.assoc instance dam_graphs in
      let params = { Sym_dam.p = Nat.of_int p; field = Field.nat_field (Nat.of_int p) } in
      let ch = challenges params.Sym_dam.field ~seed (Graph.n g) in
      Alcotest.(check (array int))
        (Printf.sprintf "%s p=%d seed=%d search table" instance p seed)
        want
        (Sym_dam.search_table ~seed params g ch);
      Alcotest.(check bool)
        (Printf.sprintf "%s p=%d seed=%d search verdict" instance p seed)
        accepted
        (Sym_dam.run ~params ~seed g (List.assoc "search" Adversary.sym_dam)).Outcome.accepted)
    tiny_search_pins

(* (instance, exact acceptance of the transposition (0 1) at seed 1's prime) *)
let exact_pins =
  [
    ("yes12", 0x1.8bef82563be22p-14);
    ("no12", 0x1.3cbf9b782fe82p-15)
  ]

let test_exact_pins () =
  List.iter
    (fun (instance, want) ->
      let g = List.assoc instance dmam_graphs in
      let params = Sym_dmam.params_for ~seed:1 g in
      Alcotest.(check (float 0.))
        (instance ^ " exact acceptance")
        want
        (Sym_dmam.acceptance_probability_exact params g (Perm.transposition (Graph.n g) 0 1)))
    exact_pins

let suite =
  [ ( "row-hash pins",
      [ Alcotest.test_case "protocol outcome pin matrix" `Quick test_outcome_pins;
        Alcotest.test_case "response digests pinned" `Quick test_digest_pins;
        Alcotest.test_case "search tables pinned" `Quick test_search_pins;
        Alcotest.test_case "exact acceptance pinned" `Quick test_exact_pins
      ] )
  ]
