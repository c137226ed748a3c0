(* E17: the empirical soundness frontier.

   The soundness theorems bound the best cheating prover analytically; this
   experiment measures how close any strategy we can *find* comes to those
   bounds. Per protocol (sym_dmam, sym_dam, dsym, gni), on the fixed NO
   instance of Strategy.frontier_cases:

   - run the Search engine (coordinate descent + (mu+lambda) refinement,
     SPRT screening) over the declarative cheat grid with the fault axis
     frozen to "none" — the paper-model frontier;
   - evaluate every registry cheater (each a seed-0 grid point) on the
     same instance at the same budget — the frontier must dominate the
     registry (asserted);
   - re-evaluate the best-found strategy under each fault level — the
     fault-sensitivity row (crash-vacuous is the PR2 leak).

   Every evaluation is an Engine.run / Engine.run_sprt over seeded trials,
   so the whole report is bit-identical across IDS_DOMAINS; trial budgets
   are fixed (deliberately NOT scaled by IDS_TRIALS_SCALE) so the committed
   BENCH_frontier.json is reproducible by `make frontier` anywhere.

   Full run:   dune exec bench/frontier/main.exe    (writes BENCH_frontier.json)
   Smoke run:  dune exec bench/frontier/main.exe -- --smoke
               (tiny budgets, same assertions; wired into @runtest-fast) *)

module Engine = Ids_engine.Engine
module Search = Ids_engine.Search
module Runlog = Ids_engine.Runlog
module Strategy = Ids_proof.Strategy

type config = {
  mode : string;
  trials_for : string -> int;
  passes : int;
  generations : int;
  screen_trials : int;
}

let full_config =
  { mode = "full";
    (* Cheap int-field protocols get deep budgets (their frontiers sit at
       ~1/p); the Nat-field sym_dam trial is ~100x dearer, and one gni trial
       scans 2 n! candidate tables. *)
    trials_for =
      (function "sym_dmam" -> 16384 | "dsym" -> 16384 | "sym_dam" -> 512 | _ -> 1024);
    passes = 2;
    generations = 3;
    screen_trials = 96
  }

let smoke_config =
  { mode = "smoke";
    trials_for = (fun _ -> 32);
    passes = 1;
    generations = 1;
    screen_trials = 8
  }

type row = {
  case : Strategy.frontier_case;
  trials : int;
  best : Search.outcome;
  best_strategy : Strategy.t;
  stats : Search.stats;
  registry : (string * Engine.estimate) list;
  faults : (string * Engine.estimate) list;
}

let run_case cfg (case : Strategy.frontier_case) =
  let trials = cfg.trials_for case.Strategy.label in
  let fault_axis = Strategy.fault_axis case.Strategy.protocol in
  let result =
    Search.run ~frozen:[ (fault_axis, 0) ] ~passes:cfg.passes ~generations:cfg.generations
      ~screen_trials:cfg.screen_trials ~full_trials:trials ~space:case.Strategy.space
      case.Strategy.trial
  in
  let best = result.Search.best in
  let best_strategy = case.Strategy.strategy_of best.Search.point in
  let registry =
    List.map
      (fun (name, trial) -> (name, Engine.run ~trials trial))
      case.Strategy.registry
  in
  (* Fault sensitivity of the best-found strategy: same point, fault axis
     swept over its levels. *)
  let fault_levels = (Strategy.levels case.Strategy.protocol).(fault_axis) in
  let faults =
    Array.to_list
      (Array.mapi
         (fun level label ->
           if level = 0 then (label, best.Search.estimate)
           else begin
             let point = Array.copy best.Search.point in
             point.(fault_axis) <- level;
             (label, Engine.run ~trials (case.Strategy.trial point))
           end)
         fault_levels)
  in
  { case; trials; best; best_strategy; stats = result.Search.stats; registry; faults }

let registry_best row =
  List.fold_left
    (fun acc (name, (e : Engine.estimate)) ->
      match acc with
      | Some (_, (b : Engine.estimate)) when b.Engine.rate >= e.Engine.rate -> acc
      | _ -> Some (name, e))
    None row.registry

let check_dominates row =
  match registry_best row with
  | None -> ()
  | Some (name, e) ->
    if row.best.Search.estimate.Engine.rate < e.Engine.rate then begin
      Printf.eprintf "FAIL: %s search best %.6f below registry %s at %.6f\n"
        row.case.Strategy.label row.best.Search.estimate.Engine.rate name e.Engine.rate;
      exit 1
    end

let print_row row =
  let e = row.best.Search.estimate in
  Printf.printf "%s (n=%d, %d trials/point): bound %s = %.3e\n" row.case.Strategy.label
    row.case.Strategy.n row.trials row.case.Strategy.bound_label row.case.Strategy.bound;
  Printf.printf "  best   %-60s rate %.6f [%.6f, %.6f] (%d/%d)\n"
    (Strategy.encode row.best_strategy) e.Engine.rate e.Engine.ci_low e.Engine.ci_high
    e.Engine.accepts e.Engine.trials;
  Printf.printf "  search %s\n" (Format.asprintf "%a" Search.pp_stats row.stats);
  List.iter
    (fun (name, (r : Engine.estimate)) ->
      Printf.printf "  registry %-24s rate %.6f [%.6f, %.6f] (%d/%d)\n" name r.Engine.rate
        r.Engine.ci_low r.Engine.ci_high r.Engine.accepts r.Engine.trials)
    row.registry;
  List.iter
    (fun (label, (r : Engine.estimate)) ->
      Printf.printf "  fault %-14s rate %.6f [%.6f, %.6f] (%d/%d)\n" label r.Engine.rate
        r.Engine.ci_low r.Engine.ci_high r.Engine.accepts r.Engine.trials)
    row.faults;
  print_newline ()

let log_row row =
  let log prover (e : Engine.estimate) fault =
    Runlog.log ?fault ~protocol:row.case.Strategy.label ~n:row.case.Strategy.n ~prover e
  in
  log (Strategy.encode row.best_strategy) row.best.Search.estimate None;
  List.iter (fun (name, e) -> log ("adversary:" ^ name) e None) row.registry;
  List.iter
    (fun (label, e) -> log (Strategy.encode row.best_strategy) e (Some label))
    row.faults

let est_fields (e : Engine.estimate) =
  Printf.sprintf
    "\"trials\": %d, \"accepts\": %d, \"rate\": %.8f, \"ci_low\": %.8f, \"ci_high\": %.8f"
    e.Engine.trials e.Engine.accepts e.Engine.rate e.Engine.ci_low e.Engine.ci_high

let json_row row =
  let e = row.best.Search.estimate in
  let registry =
    String.concat ",\n"
      (List.map
         (fun (name, r) -> Printf.sprintf "        {\"strategy\": \"%s\", %s}" name (est_fields r))
         row.registry)
  in
  let faults =
    String.concat ",\n"
      (List.map
         (fun (label, r) -> Printf.sprintf "        {\"fault\": \"%s\", %s}" label (est_fields r))
         row.faults)
  in
  let s = row.stats in
  Printf.sprintf
    "    {\n\
    \      \"protocol\": \"%s\",\n\
    \      \"n\": %d,\n\
    \      \"bound\": %.8e,\n\
    \      \"bound_label\": \"%s\",\n\
    \      \"full_trials\": %d,\n\
    \      \"best\": {\"strategy\": \"%s\", %s},\n\
    \      \"search\": {\"evaluated\": %d, \"screened_out\": %d, \"cache_hits\": %d, \"trials_spent\": %d},\n\
    \      \"registry\": [\n%s\n      ],\n\
    \      \"fault_sensitivity\": [\n%s\n      ]\n\
    \    }"
    row.case.Strategy.label row.case.Strategy.n row.case.Strategy.bound
    row.case.Strategy.bound_label row.trials
    (Strategy.encode row.best_strategy)
    (est_fields e) s.Search.evaluated s.Search.screened_out s.Search.cache_hits
    s.Search.trials_spent registry faults

let () =
  let smoke = ref false and out = ref "BENCH_frontier.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "-o" :: path :: rest ->
      out := path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cfg = if !smoke then smoke_config else full_config in
  Runlog.open_from_env ();
  let rows = List.map (run_case cfg) (Strategy.frontier_cases ()) in
  List.iter print_row rows;
  List.iter check_dominates rows;
  List.iter log_row rows;
  Runlog.close ();
  let oc = open_out !out in
  Printf.fprintf oc "{\n  \"schema_version\": 1,\n  \"mode\": \"%s\",\n  \"protocols\": [\n%s\n  ]\n}\n"
    cfg.mode
    (String.concat ",\n" (List.map json_row rows));
  close_out oc;
  Printf.printf "wrote %s\n" !out
