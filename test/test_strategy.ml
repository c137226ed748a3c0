(* Tests for the E17 adversary-search layer: qcheck round-trips and
   line-carrying rejections for the strategy codec, the named registry as
   seed-0 grid points, bit-identical searches across worker domains and
   tracing, search-dominates-registry on every protocol, and the frontier
   pins that freeze each protocol's best-found strategy (encoding +
   acceptance estimate) as a regression oracle. *)

module Search = Ids_engine.Search
module Engine = Ids_engine.Engine
module Obs = Ids_obs.Obs
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Rng = Ids_bignum.Rng
module Nat = Ids_bignum.Nat
module Field = Ids_hash.Field
module Api = Ids_hash.Api
open Ids_proof

let qtest = QCheck_alcotest.to_alcotest

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- codec round-trip ---------------------------------------------------------- *)

let protocols = [ Strategy.Sym_dmam; Strategy.Sym_dam; Strategy.Dsym; Strategy.Gni ]

(* Uniform over the whole space: any protocol, any seed, any grid point. *)
let strategy_gen st =
  let protocol = List.nth protocols (Random.State.int st (List.length protocols)) in
  let space = Strategy.space protocol in
  let seed = Random.State.int st 10_000 in
  let point =
    Array.map (fun (a : Search.axis) -> Random.State.int st a.Search.cardinality) space
  in
  Strategy.make protocol ~seed point

let strategy_arb = QCheck.make ~print:Strategy.encode strategy_gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"decode (encode s) = Ok s" ~count:500 strategy_arb (fun s ->
      match Strategy.decode (Strategy.encode s) with
      | Ok s' -> Strategy.equal s s'
      | Error _ -> false)

let prop_encode_injective =
  QCheck.Test.make ~name:"encode is injective" ~count:300
    (QCheck.pair strategy_arb strategy_arb) (fun (a, b) ->
      Strategy.equal a b = (Strategy.encode a = Strategy.encode b))

(* --- codec rejections ---------------------------------------------------------- *)

let valid_line =
  "strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none"

let test_codec_rejections () =
  (match Strategy.decode valid_line with
  | Ok s -> Alcotest.(check string) "reference line round-trips" valid_line (Strategy.encode s)
  | Error e -> Alcotest.failf "reference line rejected: %s" e);
  List.iter
    (fun (name, line) ->
      match Strategy.decode line with
      | Ok s -> Alcotest.failf "%s accepted (as %s): %S" name (Strategy.encode s) line
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s error carries a token position (%s)" name e)
          true (contains e "token");
        Alcotest.(check bool)
          (Printf.sprintf "%s error carries the line (%s)" name e)
          true (contains e line))
    [ ("wrong magic", "plan v1 sym_dmam seed=0 perm=fallback");
      ("wrong version", "strategy v2 sym_dmam seed=0 perm=fallback");
      ("unknown protocol", "strategy v1 sym_damam seed=0 perm=fallback");
      ("missing seed", "strategy v1 sym_dmam perm=fallback split=none");
      ("malformed seed", "strategy v1 sym_dmam seed=x perm=fallback");
      ( "unknown field",
        "strategy v1 sym_dmam seed=0 perm=fallback glitch=none sums=consistent echo=root \
         fault=none" );
      ( "unknown level",
        "strategy v1 sym_dmam seed=0 perm=warp split=none sums=consistent echo=root fault=none" );
      ("truncated", "strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent");
      ("trailing token", valid_line ^ " extra=1");
      ("empty line", "") ]

let test_make_validates () =
  List.iter
    (fun (name, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | (_ : Strategy.t) -> Alcotest.failf "%s accepted" name)
    [ ("wrong arity", fun () -> Strategy.make Strategy.Sym_dmam ~seed:0 [| 0; 0 |]);
      ("level out of range", fun () -> Strategy.make Strategy.Gni ~seed:0 [| 9; 0; 0 |]);
      ("negative level", fun () -> Strategy.make Strategy.Dsym ~seed:0 [| 0; -1; 0; 0; 0 |]) ]

(* --- the named registry ------------------------------------------------------------ *)

(* Per-node challenges drawn from the seed alone, like Arthur's. *)
let draws (f : _ Field.t) ~seed n = Array.init n (fun v -> f.Field.random (Rng.create ((seed * 100) + v)))

let nats_equal x y = Array.length x = Array.length y && Array.for_all2 Nat.equal x y

(* [same_play p name t seed]: on [p]'s frontier instance (rebuilt from the
   seeds [Strategy.frontier_cases] uses), the registry prover [name] and
   the grid point [t]'s prover make identical moves under [seed]'s
   challenges, and the registry prover is named ["adversary:<name>"]. *)
let same_play protocol name t seed =
  let label = "adversary:" ^ name in
  match protocol with
  | Strategy.Sym_dmam ->
    let g = Family.random_asymmetric (Rng.create 21) 8 in
    let params = Sym_dmam.params_for ~seed:3 g in
    let alias = List.assoc name Adversary.sym_dmam and grid = Strategy.sym_dmam_prover t in
    let ca = alias.Sym_dmam.commit params g and cg = grid.Sym_dmam.commit params g in
    let ch = draws params.Sym_dmam.field ~seed (Graph.n g) in
    alias.Sym_dmam.name = label
    && ca.Sym_dmam.rho = cg.Sym_dmam.rho
    && ca = cg
    && alias.Sym_dmam.respond params g ca ch = grid.Sym_dmam.respond params g cg ch
  | Strategy.Sym_dam ->
    let g = Family.random_asymmetric (Rng.create 22) 6 in
    let params = Sym_dam.params_for ~seed:3 g in
    let alias = List.assoc name Adversary.sym_dam and grid = Strategy.sym_dam_prover t in
    let ch = draws params.Sym_dam.field ~seed (Graph.n g) in
    let ra = alias.Sym_dam.respond params g ch and rg = grid.Sym_dam.respond params g ch in
    alias.Sym_dam.name = label
    && ra.Sym_dam.rho = rg.Sym_dam.rho
    && (ra.Sym_dam.root, ra.Sym_dam.parent, ra.Sym_dam.dist)
       = (rg.Sym_dam.root, rg.Sym_dam.parent, rg.Sym_dam.dist)
    && nats_equal ra.Sym_dam.index rg.Sym_dam.index
    && nats_equal ra.Sym_dam.a rg.Sym_dam.a
    && nats_equal ra.Sym_dam.b rg.Sym_dam.b
  | Strategy.Dsym ->
    let core = Family.random_asymmetric (Rng.create 23) 6 in
    let inst = Dsym.make_instance ~n:6 ~r:1 (Family.dsym_perturbed (Rng.create 24) core 1) in
    let params = Dsym.params_for ~seed:3 inst in
    let alias = List.assoc name Adversary.dsym and grid = Strategy.dsym_prover t in
    let ch = draws params.Dsym.field ~seed (Graph.n inst.Dsym.graph) in
    alias.Dsym.name = label && alias.Dsym.respond params inst ch = grid.Dsym.respond params inst ch
  | Strategy.Gni ->
    let inst = Gni.no_instance (Rng.create 25) 6 in
    let params = Gni.params_for ~seed:3 inst in
    let alias = List.assoc name Adversary.gni and grid = Strategy.gni_prover t in
    let f = params.Gs.field and n = Graph.n (Gs.graph inst.Gni.core) in
    let rng = Rng.create seed in
    let specs = Array.init n (fun _ -> Api.random_spec f ~k:params.Gs.copies rng) in
    let ch = { Gs.specs; targets = Array.init n (fun _ -> f.Field.random rng) } in
    let audit = Array.init n (fun _ -> f.Field.random rng) in
    let ca = alias.Gs.commit params inst.Gni.core ch and cg = grid.Gs.commit params inst.Gni.core ch in
    Gni.prover_name alias = label
    && ca = cg
    && alias.Gs.reveal params inst.Gni.core ch ca audit = grid.Gs.reveal params inst.Gni.core ch cg audit

let test_registry_is_grid_points () =
  List.iter
    (fun p ->
      let registry = Strategy.registry p in
      let names = List.map fst registry in
      let label = Strategy.protocol_label p in
      Alcotest.(check int) (label ^ ": registry names are unique")
        (List.length names)
        (List.length (List.sort_uniq compare names));
      let served =
        match p with
        | Strategy.Sym_dmam -> Adversary.names Adversary.sym_dmam
        | Strategy.Sym_dam -> Adversary.names Adversary.sym_dam
        | Strategy.Dsym -> Adversary.names Adversary.dsym
        | Strategy.Gni -> Adversary.names Adversary.gni
      in
      Alcotest.(check (list string)) (label ^ ": Adversary serves the registry") names served;
      List.iter
        (fun (name, s) ->
          let encoding = Strategy.encode s in
          match Strategy.decode encoding with
          | Error e -> Alcotest.failf "%s/%s: %s" label name e
          | Ok t ->
            Alcotest.(check int) (encoding ^ ": seed 0") 0 t.Strategy.seed;
            Alcotest.(check int) (encoding ^ ": fault=none") 0
              t.Strategy.point.(Strategy.fault_axis p);
            List.iter
              (fun seed ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s plays %s at seed %d" label name encoding seed)
                  true (same_play p name t seed))
              [ 0; 1; 2 ])
        registry)
    protocols

(* --- search determinism -------------------------------------------------------- *)

(* Everything that must be invariant under scheduling (all estimate fields
   except the recorded worker count). *)
let strip (e : Engine.estimate) =
  ( e.Engine.trials,
    e.Engine.accepts,
    e.Engine.rate,
    e.Engine.mean_bits,
    e.Engine.max_bits,
    e.Engine.ci_low,
    e.Engine.ci_high,
    e.Engine.stopped_early )

let strip_outcome (o : Search.outcome) = (Array.to_list o.Search.point, strip o.Search.estimate, o.Search.screened)

let strip_result (r : Search.result) =
  (strip_outcome r.Search.best, List.map strip_outcome r.Search.outcomes, r.Search.stats)

(* The test-tier search: the bench's smoke budgets. Deliberately fixed
   numbers (not Engine.scaled_trials) so the pins below hold in the full
   and the @runtest-fast tier alike. *)
let run_case ?domains (case : Strategy.frontier_case) =
  Search.run ?domains
    ~frozen:[ (Strategy.fault_axis case.Strategy.protocol, 0) ]
    ~passes:1 ~generations:1 ~screen_trials:8 ~full_trials:32 ~space:case.Strategy.space
    case.Strategy.trial

let sym_dmam_case () =
  List.find
    (fun (c : Strategy.frontier_case) -> c.Strategy.protocol = Strategy.Sym_dmam)
    (Strategy.frontier_cases ())

let test_search_determinism_across_domains () =
  let case = sym_dmam_case () in
  let reference = strip_result (run_case ~domains:1 case) in
  List.iter
    (fun d ->
      let r = strip_result (run_case ~domains:d case) in
      Alcotest.(check bool) (Printf.sprintf "domains=%d bit-identical" d) true (r = reference))
    [ 2; 4 ]

let test_search_determinism_under_tracing () =
  let case = sym_dmam_case () in
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      Obs.set_enabled false;
      let off = strip_result (run_case ~domains:2 case) in
      Obs.set_enabled true;
      let on = strip_result (run_case ~domains:2 case) in
      Alcotest.(check bool) "IDS_TRACE on/off bit-identical" true (on = off))

(* --- frontier pins -------------------------------------------------------------- *)

(* The best strategy the test-tier search finds per protocol, with its
   exact acceptance estimate — harvested from a reference run and pinned.
   Moving any of these means the search, a protocol, or an adversary
   changed behaviour; that must be a deliberate, reviewed event. *)
let pins =
  [ ( "sym_dmam",
      "strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none",
      0 );
    ("sym_dam", "strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none", 0);
    ("dsym", "strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none", 0);
    ("gni", "strategy v1 gni seed=0 commit=search reveal=honest fault=none", 6) ]

let test_frontier_pins_and_domination () =
  List.iter
    (fun (case : Strategy.frontier_case) ->
      let label = case.Strategy.label in
      let pin_encoding, pin_accepts =
        let _, e, a = List.find (fun (l, _, _) -> l = label) pins in
        (e, a)
      in
      let r = run_case case in
      let best = r.Search.best in
      let found = case.Strategy.strategy_of best.Search.point in
      Alcotest.(check string) (label ^ ": pinned best strategy") pin_encoding
        (Strategy.encode found);
      Alcotest.(check int) (label ^ ": pinned accepts") pin_accepts best.Search.estimate.Engine.accepts;
      Alcotest.(check int) (label ^ ": full evaluation") 32 best.Search.estimate.Engine.trials;
      Alcotest.(check bool) (label ^ ": best not screened") false best.Search.screened;
      (* The acceptance criterion: the search must find a strategy at least
         as strong as every registry cheater. The registry entries are
         seed-0 grid points, so this holds deterministically. *)
      List.iter
        (fun (name, trial) ->
          let e = Engine.run ~trials:32 trial in
          Alcotest.(check bool)
            (Printf.sprintf "%s: search (%.4f) >= registry %s (%.4f)" label
               best.Search.estimate.Engine.rate name e.Engine.rate)
            true
            (best.Search.estimate.Engine.rate >= e.Engine.rate))
        case.Strategy.registry)
    (Strategy.frontier_cases ())

let test_strategy_prover_names_carry_encoding () =
  (* The run-log contract: a strategy prover's name is its encoding, so a
     frontier record can always be decoded back to the strategy it ran. *)
  List.iter
    (fun (case : Strategy.frontier_case) ->
      let s = case.Strategy.strategy_of (Array.map (fun _ -> 0) case.Strategy.space) in
      let name =
        match case.Strategy.protocol with
        | Strategy.Sym_dmam -> (Strategy.sym_dmam_prover s).Sym_dmam.name
        | Strategy.Sym_dam -> (Strategy.sym_dam_prover s).Sym_dam.name
        | Strategy.Dsym -> (Strategy.dsym_prover s).Dsym.name
        | Strategy.Gni -> Gni.prover_name (Strategy.gni_prover s)
      in
      Alcotest.(check string) (case.Strategy.label ^ ": prover name is the encoding")
        (Strategy.encode s) name)
    (Strategy.frontier_cases ())

let suite =
  [ ( "strategy-codec",
      [ qtest prop_codec_roundtrip;
        qtest prop_encode_injective;
        Alcotest.test_case "rejections carry token and line" `Quick test_codec_rejections;
        Alcotest.test_case "make validates arity and range" `Quick test_make_validates;
        Alcotest.test_case "registry entries are seed-0 grid points" `Quick
          test_registry_is_grid_points
      ] );
    ( "strategy-search",
      [ Alcotest.test_case "bit-identical across domains" `Quick
          test_search_determinism_across_domains;
        Alcotest.test_case "bit-identical under tracing" `Quick
          test_search_determinism_under_tracing;
        Alcotest.test_case "frontier pins and registry domination" `Quick
          test_frontier_pins_and_domination;
        Alcotest.test_case "prover names carry the encoding" `Quick
          test_strategy_prover_names_carry_encoding
      ] )
  ]
