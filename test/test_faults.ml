(* Tests for the fault-injection layer: spec parsing, the determinism and
   zero-rate guarantees, crash/drop/equivocation semantics, the adversary
   registry, and the degradation sweep runner. *)

open Ids_proof
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Rng = Ids_bignum.Rng
module Engine = Ids_engine.Engine
module Sweep = Ids_engine.Sweep
module Runlog = Ids_engine.Runlog

let strials n = Engine.scaled_trials n

(* --- spec construction and parsing -------------------------------------------- *)

let test_spec_roundtrip () =
  let specs =
    [ Fault.none;
      Fault.drop_only 0.1;
      Fault.corrupt_only 0.05;
      Fault.crash_only 0.25;
      Fault.crash_only ~crash_mode:Fault.Crash_vacuous 0.25;
      Fault.equivocate_only;
      Fault.make ~drop:0.1 ~corrupt:0.05 ~crash:0.2 ~crash_mode:Fault.Crash_vacuous
        ~equivocate:true ()
    ]
  in
  List.iter
    (fun s ->
      let label = Fault.to_string s in
      Alcotest.(check bool) (label ^ " round-trips") true (Fault.of_string label = s))
    specs;
  Alcotest.(check string) "none label" "none" (Fault.to_string Fault.none);
  Alcotest.(check bool) "empty string is none" true (Fault.of_string "" = Fault.none);
  Alcotest.(check bool) "spaces tolerated" true
    (Fault.of_string " drop = 0.1 , equivocate " = Fault.make ~drop:0.1 ~equivocate:true ())

let test_spec_invalid () =
  let raises s = match Fault.of_string s with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unknown key" true (raises "jitter=0.1");
  Alcotest.(check bool) "bad rate" true (raises "drop=lots");
  Alcotest.(check bool) "rate above 1" true (raises "drop=1.5");
  Alcotest.(check bool) "bad crash mode" true (raises "crash_mode=explode");
  Alcotest.(check bool) "make validates" true
    (match Fault.make ~corrupt:(-0.1) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_spec_is_none () =
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  Alcotest.(check bool) "zero rates are none" true (Fault.is_none (Fault.drop_only 0.));
  Alcotest.(check bool) "equivocate is not none" false (Fault.is_none Fault.equivocate_only);
  Alcotest.(check bool) "crash mode alone is none" true
    (Fault.is_none (Fault.crash_only ~crash_mode:Fault.Crash_vacuous 0.))

(* --- zero-fault specs are bit-identical to the un-faulted path ----------------- *)

let test_zero_fault_identical () =
  (* The regression pin of the tentpole: threading ?fault through every
     channel primitive must not perturb the clean path — same acceptance,
     same bit costs, same everything, for every protocol. *)
  List.iter
    (fun (c : Adversary.case) ->
      for seed = 1 to 5 do
        let faulted = c.Adversary.run ~fault:Fault.none seed in
        let clean = c.Adversary.run ~fault:(Fault.drop_only 0.) seed in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s seed %d identical" c.Adversary.protocol c.Adversary.strategy seed)
          true (faulted = clean)
      done)
    (Adversary.cases ())

let test_zero_fault_matches_direct_run () =
  let g = Family.random_symmetric (Rng.create 42) 8 in
  for seed = 1 to 5 do
    let direct = Sym_dam.run ~seed g Sym_dam.honest in
    let via_none = Sym_dam.run ~fault:Fault.none ~seed g Sym_dam.honest in
    Alcotest.(check bool) "fault:none equals no fault argument" true (direct = via_none)
  done

let test_fault_costs_unchanged () =
  (* The ledger records what the prover transmits, not what arrives, so for
     delivery faults (drop/corrupt/equivocate) per-node bit costs are
     identical at any rate. Crash faults are the exception: crashed nodes
     are silent and must not be billed, covered by the tests below. *)
  let heavy = Fault.make ~drop:0.5 ~corrupt:0.5 ~equivocate:true () in
  List.iter
    (fun (c : Adversary.case) ->
      for seed = 1 to 3 do
        let clean = c.Adversary.run ~fault:Fault.none seed in
        let faulted = c.Adversary.run ~fault:heavy seed in
        Alcotest.(check int)
          (Printf.sprintf "%s/%s max bits" c.Adversary.protocol c.Adversary.strategy)
          clean.Outcome.max_bits_per_node faulted.Outcome.max_bits_per_node;
        Alcotest.(check int)
          (Printf.sprintf "%s/%s total bits" c.Adversary.protocol c.Adversary.strategy)
          clean.Outcome.total_bits faulted.Outcome.total_bits
      done)
    (Adversary.cases ())

let test_crashed_nodes_not_charged () =
  (* Regression: challenge/unicast/broadcast used to bill crashed-silent
     nodes for bits they never exchange, inflating crash degradation
     sweeps. Crashed nodes must end every round with a zero ledger while
     live nodes are charged exactly the clean amounts. *)
  let g = Family.random_symmetric (Rng.create 11) 10 in
  let n = Ids_graph.Graph.n g in
  let spec = Fault.crash_only 0.4 in
  let exercise net =
    let resp = Array.make n 3 in
    ignore (Network.challenge net ~bits:5 (fun rng -> Rng.bits rng 5));
    ignore (Network.unicast net ~bits:7 resp);
    ignore (Network.broadcast net ~bits:2 resp)
  in
  let seen_crash = ref false in
  for seed = 1 to 10 do
    let net = Network.create ~fault:spec ~seed g in
    let clean = Network.create ~seed g in
    exercise net;
    exercise clean;
    for v = 0 to n - 1 do
      let cost = Ids_network.Cost.node_total (Network.cost net) v in
      if Network.crashed net v then begin
        seen_crash := true;
        Alcotest.(check int) (Printf.sprintf "seed %d: crashed node %d unbilled" seed v) 0 cost
      end
      else
        Alcotest.(check int)
          (Printf.sprintf "seed %d: live node %d billed as clean" seed v)
          (Ids_network.Cost.node_total (Network.cost clean) v)
          cost
    done
  done;
  Alcotest.(check bool) "crash fault actually exercised" true !seen_crash

let test_crash_total_bits_bounded () =
  (* End-to-end view of the same fix: under crash faults the ledger total
     can only shrink relative to the clean run, never grow. *)
  let spec = Fault.crash_only 0.3 in
  List.iter
    (fun (c : Adversary.case) ->
      for seed = 1 to 3 do
        let clean = c.Adversary.run ~fault:Fault.none seed in
        let faulted = c.Adversary.run ~fault:spec seed in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s total bits bounded" c.Adversary.protocol c.Adversary.strategy)
          true
          (faulted.Outcome.total_bits <= clean.Outcome.total_bits)
      done)
    (Adversary.cases ())

(* --- fault determinism --------------------------------------------------------- *)

let test_fault_determinism () =
  (* Fault decisions are a pure function of (seed, round, node): re-running
     a faulted trial reproduces it exactly. *)
  let spec = Fault.make ~drop:0.2 ~corrupt:0.2 ~crash:0.2 ~equivocate:true () in
  List.iter
    (fun (c : Adversary.case) ->
      for seed = 1 to 5 do
        let a = c.Adversary.run ~fault:spec seed in
        let b = c.Adversary.run ~fault:spec seed in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s seed %d reproducible" c.Adversary.protocol c.Adversary.strategy seed)
          true (a = b)
      done)
    (Adversary.cases ())

(* Exact deliveries of every round kind under one spec that drops,
   corrupts, crashes and equivocates at once. The protocol-level checks
   above see only verdicts and bit counts; this pins the values each node
   receives (node 7 is crashed, the challenge round drops four nodes, the
   unicast corrupts two, the broadcast corrupts one and equivocates one,
   and node 18's broadcast copy is dropped). *)
let test_composite_deliveries_pinned () =
  let g = Graph.grid 4 5 in
  let n = Graph.n g in
  let net = Network.create ~fault:(Fault.make ~drop:0.1 ~corrupt:0.1 ~crash:0.1 ~equivocate:true ()) ~seed:1 g in
  let flags l = Array.init n (fun v -> List.mem v l) in
  Alcotest.(check (array bool)) "crashed" (flags [ 7 ]) (Array.init n (Network.crashed net));
  Alcotest.(check (array int)) "challenge draws"
    [| 55; 34; 124; 7; 98; 26; 18; 100; 11; 72; 40; 41; 87; 55; 117; 44; 40; 57; 52; 126 |]
    (Network.challenge net ~bits:7 (fun rng -> Rng.bits rng 7));
  Alcotest.(check (array bool)) "challenge drops" (flags [ 2; 5; 13 ]) (Network.take_missed net);
  Alcotest.(check (array int)) "unicast deliveries"
    [| 0; 37; 74; 111; 20; 57; 94; 3; 40; 76; 114; 23; 61; 97; 6; 43; 80; 117; 26; 63 |]
    (Network.unicast net ~corrupt:(Fault.flip_int_bit ~bits:7) ~bits:7
       (Array.init n (fun v -> (v * 37) land 127)));
  Alcotest.(check (array int)) "broadcast deliveries"
    [| 303; 301; 301; 301; 301; 301; 301; 301; 301; 429; 301; 301; 301; 301; 301; 301; 301; 301; 301; 301 |]
    (Network.broadcast_uniform net ~corrupt:(Fault.flip_int_bit ~bits:9) ~bits:9 301);
  Alcotest.(check (array bool)) "response drops" (flags [ 18 ]) (Network.take_missed net)

(* A crashed node is silent, so no delivery of it can fail: with every
   message dropped, only live nodes are marked missed and counted, while a
   crashed node's slot still goes through delivery (it takes the on_drop
   default like every other slot). *)
let test_crashed_nodes_not_dropped () =
  let module Obs = Ids_obs.Obs in
  let g = Graph.grid 4 5 in
  let n = Graph.n g in
  let before = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled before)
    (fun () ->
      let net = Network.create ~fault:(Fault.make ~drop:1.0 ~crash:0.3 ()) ~seed:3 g in
      let live = Array.init n (fun v -> not (Network.crashed net v)) in
      let live_count = Array.fold_left (fun a l -> if l then a + 1 else a) 0 live in
      Alcotest.(check bool) "some crashed, some live" true (live_count > 0 && live_count < n);
      ignore (Network.challenge net ~bits:3 (fun rng -> Rng.bits rng 3));
      Alcotest.(check (array bool)) "challenge: live nodes missed" live (Network.take_missed net);
      Alcotest.(check (array int)) "unicast: every slot takes the default" (Array.make n (-1))
        (Network.unicast net ~on_drop:(-1) ~bits:3 (Array.make n 5));
      Alcotest.(check (array bool)) "defaulted drops mark nothing" (Array.make n false) (Network.take_missed net);
      ignore (Network.broadcast_uniform net ~bits:3 5);
      Alcotest.(check (array bool)) "broadcast: live nodes missed" live (Network.take_missed net);
      let s = Obs.snapshot () in
      Alcotest.(check int) "decisions: live nodes only" (3 * live_count) (Obs.counter_total s "net.fault_decisions");
      Alcotest.(check int) "drops: live nodes only" (3 * live_count) (Obs.counter_total s "net.fault_drops"))

(* --- equivocation -------------------------------------------------------------- *)

let test_equivocation_always_caught () =
  (* On a connected graph a split broadcast fails some node's neighbor
     comparison with probability 1: every completeness case must flip from
     all-accept to all-reject under the pure equivocation spec. *)
  List.iter
    (fun (c : Adversary.case) ->
      if c.Adversary.kind = Adversary.Completeness then
        for seed = 1 to 20 do
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s seed %d accepts clean" c.Adversary.protocol c.Adversary.strategy seed)
            true
            (c.Adversary.run ~fault:Fault.none seed).Outcome.accepted;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s seed %d rejects equivocation" c.Adversary.protocol
               c.Adversary.strategy seed)
            false
            (c.Adversary.run ~fault:Fault.equivocate_only seed).Outcome.accepted
        done)
    (Adversary.cases ())

(* --- crash semantics ----------------------------------------------------------- *)

let test_crash_modes () =
  let g = Graph.petersen () in
  for seed = 1 to 5 do
    let rejecting = Sym_dmam.run ~fault:(Fault.crash_only 1.0) ~seed g Sym_dmam.honest in
    Alcotest.(check bool) "all crashed, reject mode" false rejecting.Outcome.accepted;
    let vacuous =
      Sym_dmam.run ~fault:(Fault.crash_only ~crash_mode:Fault.Crash_vacuous 1.0) ~seed g
        Sym_dmam.honest
    in
    (* Degenerate by design: with every verdict skipped, the all-nodes-accept
       rule is vacuously true. *)
    Alcotest.(check bool) "all crashed, vacuous mode" true vacuous.Outcome.accepted
  done

let test_crash_set_deterministic () =
  let f1 = Fault.create ~seed:9 ~n:20 (Fault.crash_only 0.5) in
  let f2 = Fault.create ~seed:9 ~n:20 (Fault.crash_only 0.5) in
  let set f = List.init 20 (Fault.crashed f) in
  Alcotest.(check bool) "same seed, same crash set" true (set f1 = set f2);
  let any = List.exists Fun.id (set f1) and all = List.for_all Fun.id (set f1) in
  Alcotest.(check bool) "rate 0.5 crashes someone at n=20" true any;
  Alcotest.(check bool) "rate 0.5 spares someone at n=20" false all

(* --- drop semantics ------------------------------------------------------------ *)

let test_drop_rejects_or_defaults () =
  let g = Graph.cycle 6 in
  (* With drop=1 and no on_drop default, every node misses the round and
     decide rejects even though the local predicate accepts. *)
  let net = Network.create ~fault:(Fault.drop_only 1.0) ~seed:3 g in
  let (_ : int array) = Network.unicast net ~bits:4 (Array.make 6 7) in
  Alcotest.(check bool) "all nodes missed" true
    (List.for_all (Network.missed net) (List.init 6 Fun.id));
  Alcotest.(check bool) "decide rejects" false (Network.decide net (fun _ -> true));
  (* With an on_drop default the round degrades to the protocol-defined
     value instead. *)
  let net' = Network.create ~fault:(Fault.drop_only 1.0) ~seed:3 g in
  let got = Network.unicast net' ~on_drop:0 ~bits:4 (Array.make 6 7) in
  Alcotest.(check (array int)) "defaults delivered" (Array.make 6 0) got;
  Alcotest.(check bool) "nobody missed" true
    (not (List.exists (Network.missed net') (List.init 6 Fun.id)));
  Alcotest.(check bool) "decide accepts" true (Network.decide net' (fun _ -> true))

let test_dropped_challenge_rejects () =
  let g = Graph.cycle 6 in
  let net = Network.create ~fault:(Fault.drop_only 1.0) ~seed:3 g in
  let (_ : int array) = Network.challenge net ~bits:4 (fun rng -> Rng.bits rng 4) in
  Alcotest.(check bool) "challenge drop marks sender missed" true (Network.missed net 0);
  Alcotest.(check bool) "decide rejects" false (Network.decide net (fun _ -> true))

(* --- GNI honors the fault layer's decision semantics --------------------------- *)

(* Regression: GNI's repetition loop used to compute acceptance from the
   local validity array alone, so drop and crash faults had no effect on its
   outcomes. Drops must now invalidate the affected node for the repetition
   they occur in, and crashes must be judged per the spec's crash mode. All
   three Goldwasser–Sipser variants share that loop (Gs), so each runs the
   same checks on a YES instance. *)

type gs_variant = {
  label : string;
  repetitions : int;  (** enough for the clean amplified run to accept *)
  runs :
    ((?fault:Fault.spec -> int -> Outcome.t) * (repetitions:int -> ?fault:Fault.spec -> int -> Outcome.t))
    Lazy.t;
      (** honest single repetition and honest amplified run, by seed *)
}

let gs_variants =
  [ { label = "GNI";
      repetitions = 400;
      runs =
        lazy
          (let inst = Gni.yes_instance (Rng.create 7) 6 in
           let params = Gni.params_for ~seed:11 inst in
           ( (fun ?fault seed -> Gni.run_single ?fault ~params ~seed inst Gni.honest),
             fun ~repetitions ?fault seed ->
               Gni.run ?fault ~params:(Gni.params_for ~repetitions ~seed:11 inst) ~seed inst Gni.honest ))
    };
    { label = "Gni_full";
      repetitions = 300;
      runs =
        lazy
          (let inst = Gni_full.yes_instance (Rng.create 7) 6 in
           let params = Gni_full.params_for ~seed:11 inst in
           ( (fun ?fault seed -> Gni_full.run_single ?fault ~params ~seed inst Gni_full.honest),
             fun ~repetitions ?fault seed ->
               Gni_full.run ?fault ~params:(Gni_full.params_for ~repetitions ~seed:11 inst) ~seed inst
                 Gni_full.honest ))
    };
    { label = "Gni_induced";
      repetitions = 200;
      runs =
        lazy
          (let inst = Gni_induced.yes_instance (Rng.create 7) 8 in
           let params = Gni_induced.params_for ~seed:11 inst in
           ( (fun ?fault seed -> Gni_induced.run_single ?fault ~params ~seed inst Gni_induced.honest),
             fun ~repetitions ?fault seed ->
               Gni_induced.run ?fault ~params:(Gni_induced.params_for ~repetitions ~seed:11 inst) ~seed inst
                 Gni_induced.honest ))
    }
  ]

let test_gni_drop_degrades v () =
  let run_single, _ = Lazy.force v.runs in
  let hits fault =
    let count = ref 0 in
    for seed = 1 to 40 do
      if (run_single ?fault seed).Outcome.accepted then incr count
    done;
    !count
  in
  let clean = hits None in
  let dropped = hits (Some (Fault.drop_only 0.3)) in
  Alcotest.(check bool) "clean single-repetition hits occur" true (clean > 0);
  Alcotest.(check bool)
    (Printf.sprintf "drop degrades completeness (%d -> %d hits of 40)" clean dropped)
    true (dropped < clean);
  (* With every message dropped each node misses some round, so even a
     locally valid repetition cannot be a hit. *)
  Alcotest.(check bool) "total drop rejects" false
    (run_single ~fault:(Fault.drop_only 1.0) 1).Outcome.accepted

let test_gni_crash_modes v () =
  let _, run = Lazy.force v.runs in
  Alcotest.(check bool) "clean amplified run accepts" true (run ~repetitions:v.repetitions 1).Outcome.accepted;
  (* Crash and total-drop verdicts hold at any repetition count. *)
  let run = run ~repetitions:20 in
  for seed = 1 to 3 do
    Alcotest.(check bool) "Crash_reject forces rejection" false
      (run ~fault:(Fault.crash_only 1.0) seed).Outcome.accepted;
    Alcotest.(check bool) "Crash_vacuous vacuously accepts" true
      (run ~fault:(Fault.crash_only ~crash_mode:Fault.Crash_vacuous 1.0) seed).Outcome.accepted;
    Alcotest.(check bool) "total drop rejects the amplified run" false
      (run ~fault:(Fault.drop_only 1.0) seed).Outcome.accepted
  done

let gni_fault_cases =
  List.concat_map
    (fun v ->
      [ Alcotest.test_case (v.label ^ " completeness degrades under drop") `Slow (test_gni_drop_degrades v);
        Alcotest.test_case (v.label ^ " crash modes honored") `Slow (test_gni_crash_modes v)
      ])
    gs_variants

(* --- corrupt hooks ------------------------------------------------------------- *)

let test_corrupt_hooks_change_value () =
  (* The equivocation guarantee rests on every hook returning a distinct
     value; exercise each over many draws. *)
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let x = Rng.bits rng 10 in
    Alcotest.(check bool) "flip_int_bit differs" true (Fault.flip_int_bit ~bits:10 rng x <> x)
  done;
  let module Nat = Ids_bignum.Nat in
  for i = 1 to 50 do
    let x = Nat.of_int i in
    let y = Fault.flip_nat_bit ~bits:8 rng x in
    Alcotest.(check bool) "flip_nat_bit differs" true (not (Nat.equal x y))
  done;
  Alcotest.(check bool) "flip_bool differs" true (Fault.flip_bool rng true = false);
  for n = 2 to 6 do
    let a = Array.init n Fun.id in
    let b = Fault.swap_entries rng a in
    Alcotest.(check bool) "swap_entries differs" true (a <> b);
    Alcotest.(check bool) "swap_entries preserves multiset" true
      (List.sort compare (Array.to_list b) = Array.to_list a);
    Alcotest.(check bool) "input untouched" true (a = Array.init n Fun.id)
  done;
  Alcotest.(check bool) "swap_entries singleton unchanged" true
    (Fault.swap_entries rng [| 42 |] = [| 42 |])

(* --- adversary registry -------------------------------------------------------- *)

let test_registry_lookup () =
  Alcotest.(check bool) "sym_dmam random-perm" true
    (Result.is_ok (Adversary.lookup Adversary.sym_dmam "random-perm"));
  Alcotest.(check bool) "dsym wrong-permutation" true
    (Result.is_ok (Adversary.lookup Adversary.dsym "wrong-permutation"));
  Alcotest.(check bool) "gni biased-hash" true
    (Result.is_ok (Adversary.lookup Adversary.gni "biased-hash"));
  (match Adversary.lookup Adversary.sym_dam "nope" with
  | Ok _ -> Alcotest.fail "lookup of unknown name succeeded"
  | Error msg ->
    (* The error path must name the strategies that do exist. *)
    let contains sub =
      let n = String.length msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
      go 0
    in
    let mentions s =
      Alcotest.(check bool) (Printf.sprintf "error mentions %s" s) true (contains s)
    in
    mentions "nope";
    List.iter mentions (Adversary.names Adversary.sym_dam));
  (* Every sweep-case strategy resolves through the registry it names. *)
  List.iter
    (fun (c : Adversary.case) ->
      let resolves =
        match c.Adversary.protocol with
        | "sym_dmam" -> Result.is_ok (Adversary.lookup Adversary.sym_dmam c.Adversary.strategy)
        | "sym_dam" -> Result.is_ok (Adversary.lookup Adversary.sym_dam c.Adversary.strategy)
        | "dsym" -> Result.is_ok (Adversary.lookup Adversary.dsym c.Adversary.strategy)
        | "gni" -> Result.is_ok (Adversary.lookup Adversary.gni c.Adversary.strategy)
        | _ -> c.Adversary.strategy = "honest" || c.Adversary.protocol = "pls_tree"
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s resolves" c.Adversary.protocol c.Adversary.strategy)
        true
        (c.Adversary.strategy = "honest" || resolves))
    (Adversary.cases ());
  let unique names = List.sort_uniq compare names = List.sort compare names in
  List.iter
    (fun names -> Alcotest.(check bool) "names unique" true (unique names))
    [ Adversary.names Adversary.sym_dmam;
      Adversary.names Adversary.sym_dam;
      Adversary.names Adversary.dsym;
      Adversary.names Adversary.gni
    ]

let test_registry_cases_clean_rates () =
  (* Completeness cases accept with rate 1 at fault zero; soundness cases
     stay under the Definition 2 threshold. *)
  List.iter
    (fun (c : Adversary.case) ->
      let trials = strials 30 in
      let est =
        Engine.run ~trials (fun seed ->
            Stats.trial_of_outcome (c.Adversary.run ~fault:Fault.none seed))
      in
      let name = Printf.sprintf "%s/%s" c.Adversary.protocol c.Adversary.strategy in
      match c.Adversary.kind with
      | Adversary.Completeness ->
        Alcotest.(check (float 0.)) (name ^ " completeness rate 1") 1.0 est.Engine.rate
      | Adversary.Soundness ->
        Alcotest.(check bool)
          (Printf.sprintf "%s soundness rate %.3f < 1/3" name est.Engine.rate)
          true
          (est.Engine.rate < 1. /. 3.))
    (Adversary.cases ())

let test_wrong_permutation_rejected () =
  (* Deterministic rejection even on YES instances: the verifiers recompute
     b-terms under the true sigma. *)
  let core = Family.random_asymmetric (Rng.create 8) 8 in
  let inst = Dsym.make_instance ~n:8 ~r:2 (Family.dsym_graph core 2) in
  for seed = 1 to 10 do
    Alcotest.(check bool) "wrong permutation rejected" false
      (Dsym.run ~seed inst (List.assoc "wrong-permutation" Adversary.dsym)).Outcome.accepted
  done

let test_pls_off_by_one_rejected () =
  List.iter
    (fun g ->
      let o = Adversary.run_pls_off_by_one g 0 in
      Alcotest.(check bool) "off-by-one forgery rejected" false o.Outcome.accepted;
      (* The honest advice for the same tree is accepted, so the forgery is
         the only difference. *)
      let honest = Pls.Tree.verify g (Pls.Tree.honest g 0) in
      Alcotest.(check bool) "honest advice accepted" true honest.Pls.accepted)
    [ Graph.cycle 8; Graph.petersen (); Family.random_asymmetric (Rng.create 21) 10 ]

(* --- sweep runner -------------------------------------------------------------- *)

let sweep_case () =
  List.find (fun c -> c.Adversary.protocol = "sym_dmam") (Adversary.cases ())

let test_sweep_deterministic_across_domains () =
  (* The acceptance criterion: fault-sweep results are bit-identical for
     IDS_DOMAINS in {1, 2, 4}. *)
  let c = sweep_case () in
  let specs = [ Fault.none; Fault.drop_only 0.1; Fault.equivocate_only ] in
  let run domains =
    Runlog.set_sink None;
    List.map
      (fun (p : _ Sweep.point) -> (p.Sweep.label, p.Sweep.estimate))
      (Sweep.run ~domains ~protocol:"sym_dmam" ~n:c.Adversary.n ~prover:"honest"
         ~trials:(strials 20) ~label:Fault.to_string ~specs (fun spec seed ->
           Stats.trial_of_outcome (c.Adversary.run ~fault:spec seed)))
  in
  let one = run 1 in
  List.iter
    (fun domains ->
      let other = run domains in
      List.iter2
        (fun (l1, (e1 : Engine.estimate)) (l2, (e2 : Engine.estimate)) ->
          Alcotest.(check string) "same labels" l1 l2;
          Alcotest.(check bool)
            (Printf.sprintf "%s identical at %d domains" l1 domains)
            true
            (e1.Engine.accepts = e2.Engine.accepts
            && e1.Engine.trials = e2.Engine.trials
            && e1.Engine.mean_bits = e2.Engine.mean_bits
            && e1.Engine.max_bits = e2.Engine.max_bits))
        one other)
    [ 2; 4 ]

let test_sweep_logs_fault_label () =
  let path = Filename.temp_file "ids_sweep_test" ".jsonl" in
  let oc = open_out path in
  Runlog.set_sink (Some oc);
  let c = sweep_case () in
  let (_ : Fault.spec Sweep.point list) =
    Sweep.run ~domains:1 ~protocol:"sym_dmam" ~n:c.Adversary.n ~prover:"honest" ~trials:2
      ~label:Fault.to_string
      ~specs:[ Fault.drop_only 0.25 ]
      (fun spec seed -> Stats.trial_of_outcome (c.Adversary.run ~fault:spec seed))
  in
  Runlog.set_sink None;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  let contains sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema_version present" true
    (contains (Printf.sprintf "\"schema_version\":%d" Runlog.schema_version));
  Alcotest.(check bool) "fault label present" true (contains "\"fault\":\"drop=0.25\"")

let suite =
  [ ( "fault-spec",
      [ Alcotest.test_case "to_string/of_string round-trip" `Quick test_spec_roundtrip;
        Alcotest.test_case "invalid specs rejected" `Quick test_spec_invalid;
        Alcotest.test_case "is_none" `Quick test_spec_is_none
      ] );
    ( "fault-injection",
      [ Alcotest.test_case "zero-rate spec is bit-identical" `Quick test_zero_fault_identical;
        Alcotest.test_case "fault:none equals direct run" `Quick test_zero_fault_matches_direct_run;
        Alcotest.test_case "bit costs unchanged under faults" `Quick test_fault_costs_unchanged;
        Alcotest.test_case "crashed nodes not charged" `Quick test_crashed_nodes_not_charged;
        Alcotest.test_case "crash shrinks ledger total" `Quick test_crash_total_bits_bounded;
        Alcotest.test_case "faulted runs reproducible" `Quick test_fault_determinism;
        Alcotest.test_case "composite spec deliveries pinned" `Quick test_composite_deliveries_pinned;
        Alcotest.test_case "equivocation always caught (connected)" `Slow
          test_equivocation_always_caught;
        Alcotest.test_case "crash modes" `Quick test_crash_modes;
        Alcotest.test_case "crash set deterministic" `Quick test_crash_set_deterministic;
        Alcotest.test_case "drop rejects or defaults" `Quick test_drop_rejects_or_defaults;
        Alcotest.test_case "dropped challenge rejects" `Quick test_dropped_challenge_rejects;
        Alcotest.test_case "corrupt hooks always change the value" `Quick
          test_corrupt_hooks_change_value;
        Alcotest.test_case "crashed nodes neither dropped nor counted" `Quick test_crashed_nodes_not_dropped
      ]
      @ gni_fault_cases );
    ( "adversary-registry",
      [ Alcotest.test_case "lookup and names" `Quick test_registry_lookup;
        Alcotest.test_case "clean completeness/soundness rates" `Slow test_registry_cases_clean_rates;
        Alcotest.test_case "wrong-permutation rejected" `Quick test_wrong_permutation_rejected;
        Alcotest.test_case "PLS off-by-one rejected" `Quick test_pls_off_by_one_rejected
      ] );
    ( "fault-sweep",
      [ Alcotest.test_case "bit-identical across domains" `Slow test_sweep_deterministic_across_domains;
        Alcotest.test_case "logs schema_version and fault label" `Quick test_sweep_logs_fault_label
      ] )
  ]
