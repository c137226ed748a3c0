(* Tests for the parallel deterministic trial engine: worker-count and
   chunk-size invariance, the accumulator monoid laws, Wilson interval
   sanity, SPRT early stopping, and the Stats regression pin that proves the
   engine migration behavior-preserving. *)

module Engine = Ids_engine.Engine
module Accum = Ids_engine.Accum
module Wilson = Ids_engine.Wilson
module Sprt = Ids_engine.Sprt
module Runlog = Ids_engine.Runlog
module Scheduler = Ids_engine.Scheduler
module Rng = Ids_bignum.Rng
module Family = Ids_graph.Family
open Ids_proof

let qtest = QCheck_alcotest.to_alcotest

(* Everything that must be invariant under scheduling (i.e. all fields
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

(* A synthetic trial keyed by its seed only, with variable bit costs. *)
let synth_trial seed =
  let rng = Rng.create seed in
  { Accum.accepted = Rng.float rng < 0.7; bits = Rng.int rng 100 }

(* --- determinism across worker counts and chunk sizes -------------------------- *)

let test_determinism_across_domains () =
  let reference = Engine.run ~domains:1 ~trials:1000 synth_trial in
  List.iter
    (fun d ->
      let e = Engine.run ~domains:d ~trials:1000 synth_trial in
      Alcotest.(check bool) (Printf.sprintf "domains=%d identical" d) true (strip e = strip reference))
    [ 2; 4 ]

let test_determinism_across_chunk_sizes () =
  let reference = Engine.run ~domains:1 ~chunk:32 ~trials:500 synth_trial in
  List.iter
    (fun chunk ->
      let e = Engine.run ~domains:4 ~chunk ~trials:500 synth_trial in
      Alcotest.(check bool) (Printf.sprintf "chunk=%d identical" chunk) true (strip e = strip reference))
    [ 1; 7; 33; 500; 2048 ]

let test_protocol_determinism_across_domains () =
  (* The acceptance criterion's test on real protocol code: Protocol 1 runs
     scheduled over 1, 2 and 4 domains produce the identical estimate. *)
  let g = Family.random_symmetric (Rng.create 7) 8 in
  let a = Family.random_asymmetric (Rng.create 8) 8 in
  List.iter
    (fun (name, graph, prover) ->
      let run seed = Sym_dmam.run ~seed graph prover in
      let reference = Stats.acceptance_ci ~domains:1 ~trials:60 run in
      List.iter
        (fun d ->
          let e = Stats.acceptance_ci ~domains:d ~trials:60 run in
          Alcotest.(check bool) (Printf.sprintf "%s domains=%d" name d) true
            (strip e = strip reference))
        [ 2; 4 ];
      (* and the sequential shim agrees with the engine field-for-field *)
      let shim = Stats.acceptance ~trials:60 run in
      Alcotest.(check bool) (name ^ " shim agrees") true
        (shim = Stats.of_engine reference))
    [ ("yes", g, Sym_dmam.honest); ("no", a, List.assoc "random-perm" Adversary.sym_dmam) ]

let test_shim_matches_sequential_loop () =
  (* Stats.acceptance must reproduce the historical sequential for-loop. *)
  let g = Family.random_symmetric (Rng.create 11) 8 in
  let run seed = Sym_dmam.run ~seed g Sym_dmam.honest in
  let trials = 25 in
  let accepts = ref 0 and bits_sum = ref 0 and bits_max = ref 0 in
  for seed = 1 to trials do
    let o = run seed in
    if o.Outcome.accepted then incr accepts;
    bits_sum := !bits_sum + o.Outcome.max_bits_per_node;
    if o.Outcome.max_bits_per_node > !bits_max then bits_max := o.Outcome.max_bits_per_node
  done;
  let est = Stats.acceptance ~trials run in
  Alcotest.(check int) "accepts" !accepts est.Stats.accepts;
  Alcotest.(check int) "trials" trials est.Stats.trials;
  Alcotest.(check (float 0.)) "rate" (float_of_int !accepts /. float_of_int trials) est.Stats.rate;
  Alcotest.(check (float 0.)) "mean_bits"
    (float_of_int !bits_sum /. float_of_int trials)
    est.Stats.mean_bits;
  Alcotest.(check int) "max_bits" !bits_max est.Stats.max_bits

let test_ctx_cache_deterministic_across_domains () =
  (* The modular-arithmetic context cache is keyed per domain (Domain.DLS),
     so parallel workers each build and reuse their own contexts. Results
     must depend only on the work index, never on which domain's cache
     served the context — including when the per-domain cache evicts. *)
  let module Nat = Ids_bignum.Nat in
  let module Modarith = Ids_bignum.Modarith in
  let digest i =
    let rng = Rng.create (0x51ab lxor i) in
    (* A small pool of moduli so every domain re-hits its cache, mixing odd
       (Montgomery) and even (Barrett) paths. *)
    let bound = Nat.shift_left Nat.one (64 + (13 * (i mod 7))) in
    let m = Nat.add (Nat.random_below rng bound) (Nat.of_int (2 + (i mod 5))) in
    let c = Modarith.ctx m in
    let a = Nat.random_below rng m and b = Nat.random_below rng m in
    let e = Nat.random_below rng (Nat.shift_left Nat.one 48) in
    Nat.to_string (Modarith.ctx_pow c a e) ^ "/" ^ Nat.to_string (Modarith.ctx_mul c a b)
  in
  let reference = Scheduler.map_range ~domains:1 ~lo:0 ~hi:96 digest in
  List.iter
    (fun d ->
      let got = Scheduler.map_range ~domains:d ~lo:0 ~hi:96 digest in
      Alcotest.(check (array string)) (Printf.sprintf "domains=%d identical" d) reference got)
    [ 2; 4 ]

let test_scheduler_exception_propagates () =
  Alcotest.check_raises "raised in a worker" (Failure "boom") (fun () ->
      ignore (Scheduler.map_range ~domains:4 ~lo:0 ~hi:64 (fun i -> if i = 37 then failwith "boom" else i)));
  (* The pool outlives the failed batch. *)
  Alcotest.(check (array int)) "next call succeeds" (Array.init 64 (fun i -> i * i))
    (Scheduler.map_range ~domains:4 ~lo:0 ~hi:64 (fun i -> i * i))

(* The domain that ran each index; every index sleeps so that the helper
   wakes before the caller has claimed them all. *)
let domain_ids ~domains n =
  Scheduler.map_range ~domains ~lo:0 ~hi:n (fun _ ->
      Unix.sleepf 0.002;
      (Domain.self () :> int))
  |> Array.to_list |> List.sort_uniq compare

(* Spawning per call would show a new helper id on every call. *)
let test_pool_reuses_workers () =
  let first = domain_ids ~domains:4 32 in
  let size = Scheduler.size () in
  Alcotest.(check bool) "helpers took part" true (List.length first >= 2 && size >= 3);
  let seen =
    List.fold_left (fun acc _ -> List.sort_uniq compare (domain_ids ~domains:4 32 @ acc)) first [ 2; 3; 4 ]
  in
  Alcotest.(check bool) "every call ran on the caller and the same workers" true (List.length seen <= size + 1);
  Alcotest.(check int) "no domain spawned after the first call" size (Scheduler.size ())

let test_nested_map_range_inline () =
  let outer =
    Scheduler.map_range ~domains:2 ~lo:0 ~hi:8 (fun i ->
        let self = (Domain.self () :> int) in
        let inner = Scheduler.map_range ~domains:4 ~lo:0 ~hi:8 (fun j -> ((Domain.self () :> int), (8 * i) + j)) in
        (Array.for_all (fun (d, _) -> d = self) inner, Array.map snd inner))
  in
  Array.iteri
    (fun i (inline, values) ->
      Alcotest.(check bool) (Printf.sprintf "inner call %d ran on its caller" i) true inline;
      Alcotest.(check (array int)) (Printf.sprintf "inner call %d results" i) (Array.init 8 (fun j -> (8 * i) + j)) values)
    outer

let test_ranges_partition () =
  List.iter
    (fun (domains, n) ->
      let rs = Scheduler.ranges ~domains ~n in
      let covered = Array.fold_left (fun next (lo, hi) -> if lo = next && hi > lo then hi else -1) 0 rs in
      Alcotest.(check int) (Printf.sprintf "domains=%d n=%d: consecutive, cover [0, n)" domains n) n covered;
      Alcotest.(check bool) (Printf.sprintf "domains=%d n=%d: count" domains n) true
        (if domains <= 1 then Array.length rs = 1 else Array.length rs <= 64 * domains))
    [ (1, 1); (1, 64); (2, 1); (2, 7); (2, 36); (2, 64); (4, 36); (4, 1 lsl 18) ];
  (* The pinned Apihash graphs split, so their tests exercise the split. *)
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "n=%d splits at 2 domains" n) true (Array.length (Scheduler.ranges ~domains:2 ~n) >= 2))
    [ 36; 64 ];
  Alcotest.(check (array int)) "map_ranges in range order" [| 0; 9; 18; 27 |]
    (Scheduler.map_ranges ~domains:2 ~n:36 (fun ~lo ~hi:_ -> lo))

(* --- the accumulator monoid ----------------------------------------------------- *)

let arb_trials =
  QCheck.(list_of_size (Gen.int_bound 30) (pair bool (int_bound 1000)))

let accum_of l =
  List.fold_left (fun a (accepted, bits) -> Accum.add a { Accum.accepted; bits }) Accum.empty l

let prop_merge_associative =
  QCheck.Test.make ~name:"Accum: merge associative, empty neutral" ~count:300
    (QCheck.triple arb_trials arb_trials arb_trials)
    (fun (x, y, z) ->
      let a = accum_of x and b = accum_of y and c = accum_of z in
      Accum.equal (Accum.merge (Accum.merge a b) c) (Accum.merge a (Accum.merge b c))
      && Accum.equal (Accum.merge a Accum.empty) a
      && Accum.equal (Accum.merge Accum.empty a) a)

let prop_merge_agrees_with_fold =
  QCheck.Test.make ~name:"Accum: merge of a partition = fold of the whole" ~count:300
    (QCheck.pair arb_trials arb_trials)
    (fun (x, y) -> Accum.equal (accum_of (x @ y)) (Accum.merge (accum_of x) (accum_of y)))

(* --- Wilson intervals ------------------------------------------------------------ *)

(* A deterministic sweep (a random draw hit the rare rounding cases only now
   and then): the interval lies in [0, 1] and contains the rate at every
   count for trials up to 10^4 at both endpoints, and on an interior grid;
   the endpoints are exact at 0 and at full accepts. *)
let test_wilson_contains_rate () =
  let check ~accepts ~trials =
    let rate = float_of_int accepts /. float_of_int trials in
    let lo, hi = Wilson.interval ~accepts ~trials () in
    if not (0. <= lo && lo <= rate && rate <= hi && hi <= 1.) then
      Alcotest.failf "%d/%d: [%h, %h] misses the rate %h" accepts trials lo hi rate
  in
  for trials = 1 to 10_000 do
    check ~accepts:0 ~trials;
    check ~accepts:trials ~trials;
    Alcotest.(check (float 0.)) "lo exact at 0 accepts" 0. (fst (Wilson.interval ~accepts:0 ~trials ()));
    Alcotest.(check (float 0.)) "hi exact at full accepts" 1. (snd (Wilson.interval ~accepts:trials ~trials ()))
  done;
  for trials = 1 to 300 do
    for accepts = 0 to trials do
      check ~accepts ~trials
    done
  done

let test_wilson_width_shrinks () =
  (* Width behaves like 1/sqrt(trials): quadrupling the sample roughly
     halves the interval at a fixed empirical rate. *)
  List.iter
    (fun (accepts, trials) ->
      let w n = Wilson.width ~accepts:(accepts * n) ~trials:(trials * n) () in
      let ratio = w 4 /. w 1 in
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.3f in [0.40, 0.60] at %d/%d" ratio accepts trials)
        true
        (0.40 <= ratio && ratio <= 0.60))
    [ (50, 100); (200, 400); (1, 100); (99, 100) ];
  let lo, hi = Wilson.interval ~accepts:0 ~trials:0 () in
  Alcotest.(check (pair (float 0.) (float 0.))) "vacuous at 0 trials" (0., 1.) (lo, hi)

(* --- SPRT early stopping --------------------------------------------------------- *)

let biased_trial rate seed =
  let rng = Rng.create (7919 * seed) in
  { Accum.accepted = Rng.float rng < rate; bits = 10 }

let test_sprt_agrees_with_full_run () =
  let plan = Sprt.definition2 () in
  (* Both sides of the 2/3 threshold: the early-stopped decision must agree
     with the side the full-budget estimate lands on. *)
  List.iter
    (fun (name, rate, expected) ->
      let trial = biased_trial rate in
      let full = Engine.run ~domains:1 ~trials:2000 trial in
      let est, decision = Engine.run_sprt ~domains:1 ~plan ~max_trials:2000 trial in
      Alcotest.(check bool) (name ^ " decided") true (decision = Some expected);
      Alcotest.(check bool) (name ^ " stopped early") true
        (est.Engine.stopped_early && est.Engine.trials < 2000);
      (match expected with
      | Sprt.Above -> Alcotest.(check bool) (name ^ " full run above 2/3") true (full.Engine.rate >= 2. /. 3.)
      | Sprt.Below -> Alcotest.(check bool) (name ^ " full run below 1/3") true (full.Engine.rate <= 1. /. 3.)))
    [ ("yes-side", 0.95, Sprt.Above); ("no-side", 0.05, Sprt.Below) ]

let test_sprt_determinism_across_domains () =
  let plan = Sprt.definition2 () in
  List.iter
    (fun rate ->
      let trial = biased_trial rate in
      let ref_est, ref_d = Engine.run_sprt ~domains:1 ~plan ~max_trials:2000 trial in
      List.iter
        (fun d ->
          let est, dec = Engine.run_sprt ~domains:d ~plan ~max_trials:2000 trial in
          Alcotest.(check bool)
            (Printf.sprintf "rate=%.2f domains=%d" rate d)
            true
            (strip est = strip ref_est && dec = ref_d))
        [ 2; 4 ])
    [ 0.95; 0.05; 0.5 ]

(* The decision boundary itself: Wald's corridor for H0 rate <= p0 vs
   H1 rate >= p1 at error levels alpha = beta = 1e-3 is
   (log (beta / (1-alpha)), log ((1-beta) / alpha)); the log-likelihood
   ratio of k accepts in n trials is k log (p1/p0) + (n-k) log ((1-p1)/(1-p0)).
   Recomputed here from first principles: a decision on the wrong side of
   the corridor — or silence outside it — is a fault in Sprt.decide
   regardless of how plausible the downstream estimates look. *)
let sprt_boundary_case st =
  let a = 0.001 +. Random.State.float st 0.997 in
  let b = 0.001 +. Random.State.float st 0.997 in
  let p0 = Float.min a b and p1 = Float.max a b in
  let trials = Random.State.int st 500 in
  let accepts = if trials = 0 then 0 else Random.State.int st (trials + 1) in
  (p0, p1, trials, accepts)

let prop_sprt_decisions_respect_corridor =
  QCheck.Test.make ~name:"SPRT decisions never leave the likelihood corridor" ~count:2000
    (QCheck.make
       ~print:(fun (p0, p1, n, k) -> Printf.sprintf "p0=%f p1=%f trials=%d accepts=%d" p0 p1 n k)
       sprt_boundary_case)
    (fun (p0, p1, trials, accepts) ->
      QCheck.assume (p0 < p1);
      let plan = Sprt.plan ~p0 ~p1 () in
      let llr =
        (float_of_int accepts *. log (p1 /. p0))
        +. (float_of_int (trials - accepts) *. log ((1. -. p1) /. (1. -. p0)))
      in
      let log_a = log ((1. -. 1e-3) /. 1e-3) and log_b = log (1e-3 /. (1. -. 1e-3)) in
      let acc = { Accum.empty with Accum.trials; accepts } in
      match Sprt.decide plan acc with
      | Some Sprt.Above -> llr >= log_a
      | Some Sprt.Below -> llr <= log_b
      | None -> log_b < llr && llr < log_a)

let prop_sprt_decisions_monotone =
  QCheck.Test.make ~name:"SPRT decisions are monotone in further evidence" ~count:2000
    (QCheck.make
       ~print:(fun (p0, p1, n, k) -> Printf.sprintf "p0=%f p1=%f trials=%d accepts=%d" p0 p1 n k)
       sprt_boundary_case)
    (fun (p0, p1, trials, accepts) ->
      QCheck.assume (p0 < p1);
      let plan = Sprt.plan ~p0 ~p1 () in
      let decide trials accepts = Sprt.decide plan { Accum.empty with Accum.trials; accepts } in
      match decide trials accepts with
      (* One more confirming trial can only strengthen a crossed boundary. *)
      | Some Sprt.Above -> decide (trials + 1) (accepts + 1) = Some Sprt.Above
      | Some Sprt.Below -> decide (trials + 1) accepts = Some Sprt.Below
      | None -> true)

let test_sprt_pinned_trace () =
  (* Regression pin: the exact stopping point of Definition 2's SPRT on one
     fixed seeded Bernoulli stream, both for a sequential fold over
     Sprt.decide and for the engine's chunk-granular Engine.run_sprt. *)
  let plan = Sprt.definition2 () in
  let trial = biased_trial 0.95 in
  let rec fold acc i =
    let acc = Accum.add acc (trial i) in
    match Sprt.decide plan acc with
    | Some d -> (i + 1, acc.Accum.accepts, d)
    | None -> fold acc (i + 1)
  in
  let stop_trials, stop_accepts, d = fold Accum.empty 0 in
  Alcotest.(check int) "sequential stop index" 10 stop_trials;
  Alcotest.(check int) "sequential accepts at stop" 10 stop_accepts;
  Alcotest.(check bool) "sequential decision" true (d = Sprt.Above);
  let est, decision = Engine.run_sprt ~domains:1 ~plan ~max_trials:2000 trial in
  Alcotest.(check bool) "engine decision" true (decision = Some Sprt.Above);
  Alcotest.(check int) "engine trials at stop" 32 est.Engine.trials;
  Alcotest.(check int) "engine accepts at stop" 31 est.Engine.accepts

let test_sprt_undecided_near_threshold () =
  (* A perfectly balanced trial stream keeps the log-likelihood ratio at
     zero on every chunk boundary: the test must burn the whole budget and
     refuse to decide. *)
  let alternating seed = { Accum.accepted = seed mod 2 = 0; bits = 10 } in
  let est, decision =
    Engine.run_sprt ~domains:2 ~plan:(Sprt.definition2 ()) ~max_trials:640 alternating
  in
  Alcotest.(check bool) "undecided" true (decision = None);
  Alcotest.(check int) "full budget" 640 est.Engine.trials;
  Alcotest.(check bool) "not flagged early-stopped" false est.Engine.stopped_early

(* --- run log ---------------------------------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_runlog_json_shape () =
  let e = Engine.run ~domains:1 ~trials:50 synth_trial in
  let line = Runlog.to_json ~protocol:"synth\"etic" ~n:8 ~prover:"none" e in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains line needle))
    [ Printf.sprintf "{\"schema_version\":%d," Runlog.schema_version;
      "\"protocol\":\"synth\\\"etic\""; "\"n\":8"; "\"trials\":50"; "\"ci_low\":"; "\"domains\":1" ];
  Alcotest.(check bool) "no fault field unless given" true (not (contains line "\"fault\":"));
  Alcotest.(check bool) "single line" true (not (contains line "\n"));
  let faulted = Runlog.to_json ~fault:"drop=0.1" ~protocol:"p" ~n:4 ~prover:"x" e in
  Alcotest.(check bool) "fault field present when given" true
    (let sub = "\"fault\":\"drop=0.1\"" in
     let n = String.length faulted and m = String.length sub in
     let rec go i = i + m <= n && (String.sub faulted i m = sub || go (i + 1)) in
     go 0)

(* --- env knobs --------------------------------------------------------------------- *)

let test_scaled_trials () =
  (* Compute the expectation from the ambient IDS_TRIALS_SCALE so this test
     is valid in both the full and the @runtest-fast tier. *)
  let env_scale default =
    match Sys.getenv_opt "IDS_TRIALS_SCALE" with
    | Some s -> (match float_of_string_opt s with Some f when f > 0. -> f | _ -> default)
    | None -> default
  in
  let expect scale n = max 1 (int_of_float (ceil (float_of_int n *. scale))) in
  Alcotest.(check int) "scales with env/default" (expect (env_scale 1.0) 37) (Engine.scaled_trials 37);
  Alcotest.(check int) "explicit default scale"
    (expect (env_scale 4.0) 37)
    (Engine.scaled_trials ~default_scale:4.0 37);
  Alcotest.(check int) "never below one" 1 (Engine.scaled_trials ~default_scale:0.0001 1)

(* --- regression pin: Protocol 2 through the migrated Stats ------------------------- *)

let test_stats_regression_protocol2 () =
  (* Pins the exact output of Stats.acceptance for Protocol 2 on a small
     fixed instance. These values were produced by the pre-engine
     sequential loop; the engine migration must preserve them bit-for-bit. *)
  let g = Family.random_symmetric (Rng.create 42) 8 in
  let est = Stats.acceptance ~trials:12 (fun seed -> Sym_dam.run ~seed g Sym_dam.honest) in
  Alcotest.(check int) "trials" 12 est.Stats.trials;
  Alcotest.(check int) "accepts" 12 est.Stats.accepts;
  Alcotest.(check (float 0.)) "rate" 1.0 est.Stats.rate;
  Alcotest.(check (float 0.)) "mean_bits" 177.0 est.Stats.mean_bits;
  Alcotest.(check int) "max_bits" 181 est.Stats.max_bits

let suite =
  [ ( "engine",
      [ Alcotest.test_case "determinism across domains" `Quick test_determinism_across_domains;
        Alcotest.test_case "determinism across chunk sizes" `Quick test_determinism_across_chunk_sizes;
        Alcotest.test_case "protocol determinism across domains" `Quick
          test_protocol_determinism_across_domains;
        Alcotest.test_case "shim matches sequential loop" `Quick test_shim_matches_sequential_loop;
        Alcotest.test_case "ctx cache deterministic across domains" `Quick
          test_ctx_cache_deterministic_across_domains;
        Alcotest.test_case "worker exception propagates" `Quick test_scheduler_exception_propagates;
        Alcotest.test_case "pool reuses its worker domains" `Quick test_pool_reuses_workers;
        Alcotest.test_case "nested map_range runs inline" `Quick test_nested_map_range_inline;
        Alcotest.test_case "node ranges partition [0, n)" `Quick test_ranges_partition;
        Alcotest.test_case "scaled trials" `Quick test_scaled_trials;
        qtest prop_merge_associative;
        qtest prop_merge_agrees_with_fold
      ] );
    ( "engine-wilson",
      [ Alcotest.test_case "Wilson: CI contains the rate, inside [0,1]" `Quick test_wilson_contains_rate;
        Alcotest.test_case "width shrinks like 1/sqrt(n)" `Quick test_wilson_width_shrinks
      ] );
    ( "engine-sprt",
      [ Alcotest.test_case "agrees with full run on both sides" `Quick test_sprt_agrees_with_full_run;
        Alcotest.test_case "deterministic across domains" `Quick test_sprt_determinism_across_domains;
        Alcotest.test_case "undecided near threshold" `Quick test_sprt_undecided_near_threshold;
        qtest prop_sprt_decisions_respect_corridor;
        qtest prop_sprt_decisions_monotone;
        Alcotest.test_case "pinned stopping trace" `Quick test_sprt_pinned_trace
      ] );
    ( "engine-runlog",
      [ Alcotest.test_case "JSON line shape" `Quick test_runlog_json_shape ] );
    ( "engine-regression",
      [ Alcotest.test_case "Protocol 2 pinned estimate" `Quick test_stats_regression_protocol2 ] )
  ]
