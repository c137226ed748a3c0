module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Fault = Ids_network.Fault
module Rng = Ids_bignum.Rng

(* --- per-protocol registries -------------------------------------------------- *)

(* Each name is an alias for its [Strategy.registry] point, renamed so run
   logs label it by registry name. *)
let aliases protocol prover rename =
  List.map
    (fun (name, s) -> (name, rename (prover s) ("adversary:" ^ name)))
    (Strategy.registry protocol)

let sym_dmam =
  aliases Strategy.Sym_dmam Strategy.sym_dmam_prover (fun p name -> { p with Sym_dmam.name })

let sym_dam = aliases Strategy.Sym_dam Strategy.sym_dam_prover (fun p name -> { p with Sym_dam.name })
let dsym = aliases Strategy.Dsym Strategy.dsym_prover (fun p name -> { p with Dsym.name })
let gni = aliases Strategy.Gni Strategy.gni_prover (fun p name -> { p with Gs.name })

let names registry = List.map fst registry

let lookup registry name =
  match List.assoc_opt name registry with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown strategy %S (known: %s)" name (String.concat ", " (names registry)))

(* The sweep cases below name their strategies by registry key; resolving
   through [lookup] keeps the two lists from drifting apart. *)
let resolve registry name =
  match lookup registry name with Ok p -> p | Error e -> invalid_arg ("Adversary.cases: " ^ e)

(* --- the PLS baseline's forger ------------------------------------------------ *)

let pls_off_by_one g root =
  let a = Pls.Tree.honest g root in
  { a with Pls.Tree.dist = Array.map succ a.Pls.Tree.dist }

let run_pls_off_by_one g root =
  let advice = pls_off_by_one g root in
  let v = Pls.Tree.verify g advice in
  let bits = v.Pls.advice_bits_per_node in
  (* The baseline has no prover channel, so advice bits play every role. *)
  { Outcome.accepted = v.Pls.accepted;
    max_bits_per_node = bits;
    max_response_bits = bits;
    total_bits = bits * Graph.n g;
    prover = "adversary:off-by-one-dist"
  }

(* --- fixed sweep cases -------------------------------------------------------- *)

type kind = Completeness | Soundness

type case = {
  protocol : string;
  strategy : string;
  kind : kind;
  n : int;
  run : fault:Fault.spec -> int -> Outcome.t;
}

let kind_to_string = function Completeness -> "completeness" | Soundness -> "soundness"

(* Small fixed instances so one sweep point stays cheap; everything below is
   derived from hard-coded seeds, so the cases are the same in every process.
   Completeness cases accept with probability 1 at fault zero (the anchor a
   degradation curve needs); soundness cases reject with the probability the
   respective analysis bounds. *)
let cases () =
  let fault_or_none fault = if Fault.is_none fault then None else Some fault in
  let sym_cases =
    let yes_g = Family.random_symmetric (Rng.create 11) 12 in
    let no_g = Family.random_asymmetric (Rng.create 12) 12 in
    [ { protocol = "sym_dmam"; strategy = "honest"; kind = Completeness; n = 12;
        run = (fun ~fault seed -> Sym_dmam.run ?fault:(fault_or_none fault) ~seed yes_g Sym_dmam.honest)
      };
      (let strategy = "random-perm" in
       { protocol = "sym_dmam"; strategy; kind = Soundness; n = 12;
         run =
           (fun ~fault seed ->
             Sym_dmam.run ?fault:(fault_or_none fault) ~seed no_g (resolve sym_dmam strategy))
       })
    ]
  in
  let dsym_cases =
    let side = 8 and r = 2 in
    let core = Family.random_asymmetric (Rng.create 13) side in
    let yes = Dsym.make_instance ~n:side ~r (Family.dsym_graph core r) in
    let vertices = (2 * side) + (2 * r) + 1 in
    [ { protocol = "dsym"; strategy = "honest"; kind = Completeness; n = vertices;
        run = (fun ~fault seed -> Dsym.run ?fault:(fault_or_none fault) ~seed yes Dsym.honest)
      };
      (let strategy = "consistent" in
       { protocol = "dsym"; strategy; kind = Soundness; n = vertices;
         run =
           (fun ~fault seed ->
             (* Per-seed perturbation: trial functions must be pure in the seed. *)
             let bad =
               Dsym.make_instance ~n:side ~r
                 (Family.dsym_perturbed (Rng.create (31 + seed)) core r)
             in
             Dsym.run ?fault:(fault_or_none fault) ~seed bad (resolve dsym strategy))
       });
      (let strategy = "wrong-permutation" in
       { protocol = "dsym"; strategy; kind = Soundness; n = vertices;
         run =
           (fun ~fault seed ->
             Dsym.run ?fault:(fault_or_none fault) ~seed yes (resolve dsym strategy))
       })
    ]
  in
  let dam_cases =
    let yes_g = Family.random_symmetric (Rng.create 14) 8 in
    let no_g = Family.random_asymmetric (Rng.create 15) 8 in
    (* The prime search is the expensive part of a Sym_dam trial; share one
       parameter draw across all trials like the bench harness does. *)
    let yes_params = Sym_dam.params_for ~seed:7 yes_g in
    let no_params = Sym_dam.params_for ~seed:7 no_g in
    [ { protocol = "sym_dam"; strategy = "honest"; kind = Completeness; n = 8;
        run =
          (fun ~fault seed ->
            Sym_dam.run ?fault:(fault_or_none fault) ~params:yes_params ~seed yes_g Sym_dam.honest)
      };
      (let strategy = "random-perm" in
       { protocol = "sym_dam"; strategy; kind = Soundness; n = 8;
         run =
           (fun ~fault seed ->
             Sym_dam.run ?fault:(fault_or_none fault) ~params:no_params ~seed no_g
               (resolve sym_dam strategy))
       })
    ]
  in
  let gni_cases =
    let inst = Gni.no_instance (Rng.create 16) 6 in
    let params = Gni.params_for ~seed:7 inst in
    [ (let strategy = "biased-hash" in
       { protocol = "gni"; strategy; kind = Soundness; n = 6;
         run =
           (fun ~fault seed ->
             Gni.run_single ?fault:(fault_or_none fault) ~params ~seed inst
               (resolve gni strategy))
       })
    ]
  in
  let pls_cases =
    let g = Family.random_asymmetric (Rng.create 17) 12 in
    [ { protocol = "pls_tree"; strategy = "off-by-one-dist"; kind = Soundness; n = 12;
        (* The baseline exchanges no prover messages, so faults don't apply. *)
        run = (fun ~fault:_ _seed -> run_pls_off_by_one g 0)
      }
    ]
  in
  sym_cases @ dsym_cases @ dam_cases @ gni_cases @ pls_cases
