(* Tests for the tracing/metrics layer (lib/obs) and its integrations:
   determinism of traced runs across worker counts, canonical span order,
   exact agreement between the per-round bit counters and the Cost ledger,
   Chrome-trace export shape, Runlog schema v2/v3 readback, and the lazy
   run-log sink. *)

module Obs = Ids_obs.Obs
module Json = Ids_obs.Json
module Trace = Ids_obs.Trace
module Engine = Ids_engine.Engine
module Runlog = Ids_engine.Runlog
module Rng = Ids_bignum.Rng
module Nat = Ids_bignum.Nat
module Family = Ids_graph.Family
open Ids_proof

(* Tracing is process-global state; every test that turns it on must leave
   it the way the suite runs (off unless IDS_TRACE was exported). *)
let with_tracing f =
  let before = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.reset (); Obs.set_enabled before) f

let strip (e : Engine.estimate) =
  ( e.Engine.trials,
    e.Engine.accepts,
    e.Engine.rate,
    e.Engine.mean_bits,
    e.Engine.max_bits,
    e.Engine.ci_low,
    e.Engine.ci_high,
    e.Engine.stopped_early )

let sym16 = lazy (Family.random_symmetric (Rng.create 99) 16)

let sym_trial seed = Stats.trial_of_outcome (Sym_dmam.run ~seed (Lazy.force sym16) Sym_dmam.honest)

(* --- determinism ---------------------------------------------------------------- *)

let test_traced_estimates_deterministic () =
  (* Tracing must not draw randomness or change control flow: the same
     estimate bit-for-bit whether tracing is off or on, for any worker
     count. *)
  let untraced = Engine.run ~domains:1 ~trials:60 sym_trial in
  with_tracing (fun () ->
      List.iter
        (fun d ->
          let e = Engine.run ~domains:d ~trials:60 sym_trial in
          Alcotest.(check bool)
            (Printf.sprintf "traced, domains=%d, identical to untraced" d)
            true
            (strip e = strip untraced))
        [ 1; 2; 4 ])

let span_labels () =
  List.filter_map
    (fun (s : Obs.span_record) ->
      (* Chunk spans are labeled by chunk index, which depends on the chunk
         size, not the worker count — but the scheduler only emits them for
         engine-driven runs, and their count is worker-dependent only via
         the final ragged chunk. They're excluded from the canonical-label
         claim, which is about protocol structure. *)
      if s.Obs.sname = "scheduler.chunk" then None else Some (s.Obs.sname, s.Obs.sround, s.Obs.snode))
    (Obs.spans ())

let test_span_order_canonical_across_domains () =
  let labels_for d =
    with_tracing (fun () ->
        ignore (Engine.run ~domains:d ~trials:40 sym_trial : Engine.estimate);
        span_labels ())
  in
  let reference = labels_for 1 in
  Alcotest.(check bool) "some spans recorded" true (reference <> []);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d same canonical label sequence" d)
        true
        (labels_for d = reference))
    [ 2; 4 ]

(* --- counters vs the Cost ledger -------------------------------------------------- *)

let counter name (s : Obs.snapshot) = List.find_opt (fun c -> c.Obs.cname = name) s.Obs.counters

let total name s = match counter name s with Some c -> c.Obs.total | None -> 0

let test_counters_sum_to_cost_ledger () =
  (* The acceptance criterion of the tracing layer: per-round bit counters
     are bumped at the same program points, by the same amounts, as the
     Cost ledger — so over any window their totals equal the summed
     Outcome.total_bits exactly. dSym at n = 24, per the spec. *)
  let f = Family.random_asymmetric (Rng.create 7) 24 in
  let inst = Dsym.make_instance ~n:24 ~r:2 (Family.dsym_graph f 2) in
  with_tracing (fun () ->
      let ledger = ref 0 in
      for seed = 1 to 12 do
        let o = Dsym.run ~seed inst Dsym.honest in
        ledger := !ledger + o.Outcome.total_bits
      done;
      let s = Obs.snapshot () in
      let counted = total "net.to_prover_bits" s + total "net.from_prover_bits" s in
      Alcotest.(check int) "counters = Cost ledger, exactly" !ledger counted;
      (* Bit counters only ever bump labeled (round, node) cells, so the
         per-round rows must add back up to each counter's total. *)
      List.iter
        (fun name ->
          match counter name s with
          | None -> Alcotest.fail (name ^ " missing")
          | Some c ->
            let round_sum = List.fold_left (fun a (r : Obs.round_row) -> a + r.Obs.sum) 0 c.Obs.rounds in
            Alcotest.(check int) (name ^ " rounds sum to total") c.Obs.total round_sum;
            List.iter
              (fun (r : Obs.round_row) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s round %d max cell <= sum" name r.Obs.round)
                  true
                  (r.Obs.max_node <= r.Obs.sum && r.Obs.max_node > 0))
              c.Obs.rounds)
        [ "net.to_prover_bits"; "net.from_prover_bits" ])

let test_montgomery_counters () =
  with_tracing (fun () ->
      let m = Nat.of_int 1_000_003 in
      let ctx = Ids_bignum.Montgomery.make m in
      let before = total "mont.pow" (Obs.snapshot ()) in
      let r = Ids_bignum.Montgomery.pow ctx (Nat.of_int 1234) (Nat.of_int 56789) in
      let s = Obs.snapshot () in
      Alcotest.(check bool) "result sane" true (Nat.compare r m < 0);
      Alcotest.(check int) "one pow counted" (before + 1) (total "mont.pow" s);
      Alcotest.(check bool) "reductions counted" true (total "mont.redc" s > 0);
      match List.find_opt (fun h -> h.Obs.hname = "mont.pow_bits") s.Obs.histos with
      | None -> Alcotest.fail "mont.pow_bits histogram missing"
      | Some h ->
        Alcotest.(check int) "one exponent observed"
          1
          (List.fold_left (fun a (_, c) -> a + c) 0 h.Obs.buckets))

(* --- primitives ------------------------------------------------------------------- *)

let test_histo_buckets () =
  List.iter
    (fun (v, b) -> Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Obs.Histo.bucket_of v))
    [ (-3, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1023, 10); (1024, 11) ]

let test_disabled_records_nothing () =
  with_tracing (fun () ->
      Obs.set_enabled false;
      let c = Obs.Counter.make "test.disabled" in
      Obs.Counter.add c 5;
      Obs.Counter.add_cell c ~round:1 ~node:2 7;
      ignore (Obs.span "test.disabled.span" (fun () -> 42) : int);
      Alcotest.(check int) "no ops recorded" 0 (Obs.ops_count ());
      Alcotest.(check bool) "no spans" true (Obs.spans () = []);
      let s = Obs.snapshot () in
      Alcotest.(check bool) "no counter cells" true (counter "test.disabled" s = None))

let test_wide_node_cells () =
  (* Node ids past 2^21 keep their round: three cells of round 3 read back
     as one round, not as rounds 3, 4 and 5. *)
  with_tracing (fun () ->
      let c = Obs.Counter.make "test.wide_nodes" in
      List.iter (fun node -> Obs.Counter.add_cell c ~round:3 ~node 1) [ 5; (1 lsl 21) - 1; 1 lsl 22; 1 lsl 30 ];
      (match counter "test.wide_nodes" (Obs.snapshot ()) with
      | Some c ->
        Alcotest.(check (list (pair int int)))
          "one round, summed" [ (3, 4) ]
          (List.map (fun (r : Obs.round_row) -> (r.Obs.round, r.Obs.sum)) c.Obs.rounds)
      | None -> Alcotest.fail "counter missing");
      List.iter
        (fun (round, node) ->
          Alcotest.check_raises
            (Printf.sprintf "label (%d, %d) rejected" round node)
            (Invalid_argument "Obs.Counter.add_cell: round or node label out of range")
            (fun () -> Obs.Counter.add_cell c ~round ~node 1))
        [ (1 lsl 20, 0); (-2, 0); (0, (1 lsl 31) - 1); (0, -2) ])

let test_ops_count_and_reset_metrics () =
  with_tracing (fun () ->
      let c = Obs.Counter.make "test.ops" in
      let h = Obs.Histo.make "test.ops.h" in
      Obs.Counter.add c 3;
      Obs.Counter.add_cell c ~round:2 ~node:1 4;
      Obs.Histo.observe h 9;
      ignore (Obs.span ~round:1 "test.ops.span" (fun () -> ()) : unit);
      Alcotest.(check int) "four instrumentation calls" 4 (Obs.ops_count ());
      (match counter "test.ops" (Obs.snapshot ()) with
      | Some c -> Alcotest.(check int) "total over cells" 7 c.Obs.total
      | None -> Alcotest.fail "counter missing");
      Obs.reset_metrics ();
      let s = Obs.snapshot () in
      Alcotest.(check bool) "metrics cleared" true (counter "test.ops" s = None);
      Alcotest.(check bool) "spans survive reset_metrics" true
        (List.exists (fun (r : Obs.span_record) -> r.Obs.sname = "test.ops.span") (Obs.spans ())))

(* --- trace export ------------------------------------------------------------------ *)

let test_trace_export_parses () =
  with_tracing (fun () ->
      ignore (sym_trial 1 : Ids_engine.Accum.trial);
      let path = Filename.temp_file "ids_test_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.write_file path;
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let body = really_input_string ic len in
          close_in ic;
          match Json.parse body with
          | Error e -> Alcotest.fail ("trace is not valid JSON: " ^ e)
          | Ok j -> (
            match Option.bind (Json.member "traceEvents" j) Json.to_list with
            | None | Some [] -> Alcotest.fail "no traceEvents"
            | Some events ->
              List.iter
                (fun ev ->
                  let str name = Option.bind (Json.member name ev) Json.to_string in
                  Alcotest.(check (option string)) "complete event" (Some "X") (str "ph");
                  Alcotest.(check bool) "has name" true (str "name" <> None);
                  Alcotest.(check bool) "has ts" true
                    (Option.bind (Json.member "ts" ev) Json.to_float <> None);
                  Alcotest.(check bool) "has dur" true
                    (Option.bind (Json.member "dur" ev) Json.to_float <> None))
                events)))

(* --- run-log schema v2/v3 ----------------------------------------------------------- *)

let v2_line =
  {|{"schema_version":2,"protocol":"sym_dmam","n":16,"prover":"honest","fault":"drop=0.1","trials":80,"accepts":78,"rate":0.975,"ci_low":0.913,"ci_high":0.993,"mean_bits":87.2,"max_bits":92,"domains":4,"stopped_early":false}|}

let v3_line =
  {|{"schema_version":3,"protocol":"dsym","n":24,"prover":"honest","trials":12,"accepts":12,"rate":1,"ci_low":0.757,"ci_high":1,"mean_bits":130.5,"max_bits":134,"domains":1,"stopped_early":false,"metrics":{"counters":[{"name":"net.from_prover_bits","total":100,"rounds":[[2,60,30],[3,40,20]]}],"histos":[],"spans_dropped":0}}|}

let test_runlog_reads_v2_and_v3 () =
  (match Runlog.of_line v2_line with
  | Error e -> Alcotest.fail ("v2 rejected: " ^ e)
  | Ok r ->
    Alcotest.(check int) "v2 version" 2 r.Runlog.version;
    Alcotest.(check (option string)) "v2 fault" (Some "drop=0.1") r.Runlog.fault;
    Alcotest.(check bool) "v2 has no metrics" true (r.Runlog.metrics = None));
  match Runlog.of_line v3_line with
  | Error e -> Alcotest.fail ("v3 rejected: " ^ e)
  | Ok r ->
    Alcotest.(check int) "v3 version" 3 r.Runlog.version;
    Alcotest.(check int) "v3 n" 24 r.Runlog.n;
    (match r.Runlog.metrics with
    | None -> Alcotest.fail "v3 metrics missing"
    | Some m ->
      Alcotest.(check bool) "metrics is an object with counters" true
        (Json.member "counters" m <> None))

let test_runlog_rejects_unknown_version () =
  let bad =
    {|{"schema_version":9,"protocol":"x","n":1,"prover":"p","trials":1,"accepts":1,"rate":1,"ci_low":1,"ci_high":1,"mean_bits":1,"max_bits":1,"domains":1,"stopped_early":false}|}
  in
  match Runlog.of_line bad with
  | Ok _ -> Alcotest.fail "schema_version 9 accepted"
  | Error e ->
    Alcotest.(check bool)
      ("error names the supported range: " ^ e)
      true
      (String.length e >= 22 && String.sub e 0 22 = "unknown schema_version")

let test_runlog_read_file_mixed () =
  let path = Filename.temp_file "ids_test_runs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (v2_line ^ "\n\n" ^ v3_line ^ "\n");
      close_out oc;
      (match Runlog.read_file path with
      | Error e -> Alcotest.fail e
      | Ok records ->
        Alcotest.(check int) "two records (blank line skipped)" 2 (List.length records);
        Alcotest.(check (list int)) "versions in file order" [ 2; 3 ]
          (List.map (fun (r : Runlog.record) -> r.Runlog.version) records));
      let oc = open_out path in
      output_string oc (v2_line ^ "\n{broken\n");
      close_out oc;
      match Runlog.read_file path with
      | Ok _ -> Alcotest.fail "malformed line accepted"
      | Error e ->
        Alcotest.(check bool) ("error carries the line number: " ^ e) true
          (let marker = ":2:" in
           let rec contains i =
             i + String.length marker <= String.length e
             && (String.sub e i (String.length marker) = marker || contains (i + 1))
           in
           contains 0))

(* --- lazy sink ----------------------------------------------------------------------- *)

let test_lazy_sink_creates_no_file_until_log () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "ids_test_lazy_sink.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (* open_from_env prefers IDS_RUNLOG when exported; the default-path
     behavior under test is only reachable without it. *)
  if Sys.getenv_opt "IDS_RUNLOG" = None then
    Fun.protect
      ~finally:(fun () ->
        Runlog.close ();
        if Sys.file_exists path then Sys.remove path)
      (fun () ->
        Runlog.open_from_env ~default:path ();
        Alcotest.(check bool) "no file before the first record" false (Sys.file_exists path);
        let e = Engine.run ~domains:1 ~trials:5 sym_trial in
        Runlog.log ~protocol:"test" ~n:16 ~prover:"honest" e;
        Alcotest.(check bool) "file exists after the first record" true (Sys.file_exists path);
        Runlog.close ();
        match Runlog.read_file path with
        | Ok [ r ] -> Alcotest.(check int) "round-trips at v3" 3 r.Runlog.version
        | Ok l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))
        | Error err -> Alcotest.fail err)

(* Pool workers park between batches and keep their Domain.DLS shards, so
   Obs.reset must clear those shards, not unregister them: a span a worker
   records after the reset must still be merged. *)
let test_worker_spans_survive_reset () =
  with_tracing (fun () ->
      let caller = (Domain.self () :> int) in
      let batch () =
        ignore
          (Ids_engine.Scheduler.map_range ~domains:2 ~lo:0 ~hi:32 (fun i ->
               Obs.span ~round:i "test.pool_task" (fun () -> Unix.sleepf 0.002)))
      in
      let worker_spans () =
        List.filter
          (fun (r : Obs.span_record) -> r.Obs.sname = "test.pool_task" && r.Obs.sdomain <> caller)
          (Obs.spans ())
      in
      batch ();
      Alcotest.(check bool) "a worker recorded spans" true (worker_spans () <> []);
      Obs.reset ();
      Alcotest.(check int) "reset cleared them" 0 (List.length (worker_spans ()));
      batch ();
      Alcotest.(check bool) "the worker's spans after the reset are merged" true (worker_spans () <> []);
      Alcotest.(check int) "every task span is merged" 32
        (List.length (List.filter (fun (r : Obs.span_record) -> r.Obs.sname = "test.pool_task") (Obs.spans ()))))

(* A traced Apihash run takes the per-node ledger path (every charge also
   bumps its (round, node) cell) and an untraced one the uniform charges:
   the same Outcome.t, and the traced cells still add up to the ledger.
   The traced run records each of the run's phase spans once. *)
let test_apihash_traced_pair () =
  let g = Family.expander (Rng.create 4) ~n:64 ~degree:4 in
  List.iter
    (fun (fault, label) ->
      let untraced = Apihash.run ?fault ~seed:3 ~root:0 g in
      with_tracing (fun () ->
          let traced = Apihash.run ?fault ~seed:3 ~root:0 g in
          Alcotest.(check bool) (label ^ ": same outcome traced and untraced") true (traced = untraced);
          let s = Obs.snapshot () in
          Alcotest.(check int) (label ^ ": net bit cells = Cost.total") traced.Outcome.total_bits
            (total "net.to_prover_bits" s + total "net.from_prover_bits" s);
          List.iter
            (fun phase ->
              Alcotest.(check int) (label ^ ": one span " ^ phase) 1
                (List.length (List.filter (fun (r : Obs.span_record) -> r.Obs.sname = phase) (Obs.spans ()))))
            [ "apihash.arthur"; "apihash.bfs_tables"; "apihash.row_terms"; "apihash.accumulate"; "apihash.merlin";
              "apihash.decide"; "apihash.run" ]))
    [ (None, "clean"); (Some (Ids_network.Fault.crash_only ~crash_mode:Ids_network.Fault.Crash_vacuous 0.1), "crash") ]

let suite =
  [ ( "obs",
      [ Alcotest.test_case "traced estimates deterministic across domains" `Slow
          test_traced_estimates_deterministic;
        Alcotest.test_case "span label order canonical across domains" `Slow
          test_span_order_canonical_across_domains;
        Alcotest.test_case "bit counters sum exactly to the Cost ledger (dSym n=24)" `Quick
          test_counters_sum_to_cost_ledger;
        Alcotest.test_case "Montgomery kernel counters" `Quick test_montgomery_counters;
        Alcotest.test_case "histogram bucketing" `Quick test_histo_buckets;
        Alcotest.test_case "disabled tracing records nothing" `Quick test_disabled_records_nothing;
        Alcotest.test_case "ops count and reset_metrics" `Quick test_ops_count_and_reset_metrics;
        Alcotest.test_case "cells keep wide node ids" `Quick test_wide_node_cells;
        Alcotest.test_case "Chrome trace export parses" `Quick test_trace_export_parses;
        Alcotest.test_case "runlog reads schema v2 and v3" `Quick test_runlog_reads_v2_and_v3;
        Alcotest.test_case "runlog rejects unknown schema versions" `Quick
          test_runlog_rejects_unknown_version;
        Alcotest.test_case "runlog read_file: mixed versions, line errors" `Quick
          test_runlog_read_file_mixed;
        Alcotest.test_case "run-log sink is created lazily" `Quick
          test_lazy_sink_creates_no_file_until_log;
        Alcotest.test_case "pool worker spans survive Obs.reset" `Quick test_worker_spans_survive_reset;
        Alcotest.test_case "apihash traced/untraced pair" `Quick test_apihash_traced_pair
      ] )
  ]
