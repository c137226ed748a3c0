(* Shared measurement kit: monotonic timing, order statistics, process
   memory, the layer table and the result line. Every timer reads the
   monotonic Obs.now_ns clock. *)

module Obs = Ids_obs.Obs

let now_ns = Obs.now_ns
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, seconds_since t0)

(* Nearest-rank quantile of an unsorted sample, q in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if n = 0 then nan else a.(Int.min (n - 1) (Int.max 0 (rank - 1)))

let median xs = quantile 0.5 xs

(* The q-quantile when at least ten samples lie beyond it; otherwise the
   highest quantile that has ten beyond it, and never below the median. A
   window of four long runs has no tail to report, so it reads its
   median. *)
let tail_quantile q xs =
  let n = List.length xs in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if n - rank >= 10 then quantile q xs
  else quantile (Float.max 0.5 (float_of_int (n - 10) /. float_of_int n)) xs

let mean xs = match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let sum xs = List.fold_left ( +. ) 0. xs

(* Peak resident set of this process in MB: VmHWM from /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
          | Some kb -> float_of_int kb /. 1024.
          | None -> scan ())
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* Span totals by name from the current Obs buffer. *)
let span_total ?(pred = fun _ -> true) () =
  List.fold_left
    (fun acc (s : Obs.span_record) -> if pred s.Obs.sname then acc + s.Obs.dur_ns else acc)
    0 (Obs.spans ())

(* --- the run's outcome ------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** name -> value; units come from the lists below *)
  samples : (string * int) list;  (** sample counts behind the reported medians *)
}

(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   declares the same names and units; the smoke test checks the two agree. *)
let end_to_end =
  [ ("setup_s", "s");
    ("nodes_per_s", "nodes/s");
    ("peak_rss_mb", "MB");
    ("trials_per_s", "trials/s");
    ("requests_per_s", "req/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms")
  ]

let per_layer =
  [ (* scale_apihash *)
    ("graph.expander_s", "s");
    ("graph_io.sparse6_s", "s");
    ("apihash.params_s", "s");
    ("apihash.prover_s", "s");
    ("apihash.verify_s", "s");
    ("net.fold_s", "s");
    ("spanning_tree.bfs_s", "s");
    ("aggregation.honest_sums_s", "s");
    ("api.row_term_ns", "ns");
    ("api.row_term_share", "fraction");
    ("gc.minor_words_per_node", "words");
    ("gc.major_collections", "count");
    ("net.from_prover_bits", "bits");
    ("net.to_prover_bits", "bits");
    (* estimate_mix *)
    ("proof.sym_dmam.trial_us", "us");
    ("proof.dsym.trial_us", "us");
    ("proof.sym_dam.trial_us", "us");
    ("proof.gni.trial_us", "us");
    ("proof.pls_tree.trial_us", "us");
    ("engine.busy_ratio", "fraction");
    ("engine.idle_us_per_estimate", "us");
    ("net.span_share", "fraction");
    ("prime.candidates_per_trial", "count");
    ("prime.mr_rounds_per_trial", "count");
    ("net.fault_decisions_per_trial", "count");
    ("net.fault_drops_per_trial", "count");
    ("memo.bfs.hit_ratio", "fraction");
    ("gc.minor_words_per_trial", "words");
    (* serve_mix *)
    ("serve.boot_s", "s");
    ("serve.worker_run_ms", "ms");
    ("serve.queue_wait_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("request.codec_us", "us");
    ("runlog.append_us", "us");
    ("serve.retried", "count");
    ("serve.shed", "count");
    ("serve.worker_crashes", "count");
    (* every workload *)
    ("trace.overhead_pct", "%");
    ("trace.layer_sum_ratio", "fraction")
  ]

(* --- the layer table -------------------------------------------------------------- *)

type row = { layer : string; what : string; self_s : float; count : int }

(* Print the per-layer self-time table against the traced wall time [base]
   (total capacity: wall x domains) and return sum(self) / base. The rows
   must partition the run; the ratio is the 5% attribution check. *)
let layer_table ~title ~base rows =
  Printf.printf "layer table: %s (base %.6f s)\n" title base;
  Printf.printf "  %-12s %-44s %12s %8s %10s\n" "layer" "measured as" "self s" "share" "count";
  List.iter
    (fun r ->
      Printf.printf "  %-12s %-44s %12.6f %7.2f%% %10d\n" r.layer r.what r.self_s
        (100. *. r.self_s /. base) r.count)
    rows;
  let total = sum (List.map (fun r -> r.self_s) rows) in
  let ratio = total /. base in
  Printf.printf "  %-12s %-44s %12.6f %7.2f%%  sum check (within 5%%): %s\n%!" "sum" "" total
    (100. *. ratio)
    (if Float.abs (ratio -. 1.) <= 0.05 then "PASS" else "FAIL");
  ratio

(* --- output ----------------------------------------------------------------------- *)

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let header ~commit ~workload ~seed ~seconds ~trace ~smoke samples =
  Printf.printf
    "header {\"commit\":\"%s\",\"host\":\"%s\",\"ocaml\":\"%s\",\"cores\":%d,\"workload\":\"%s\",\"seed\":%d,\"seconds\":%d,\"trace\":%d,\"smoke\":%b,\"samples\":{%s}}\n"
    (json_escape commit)
    (json_escape (Unix.gethostname ()))
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    workload seed seconds
    (if trace then 1 else 0)
    smoke
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v) samples))

(* The result line: exactly the metrics of the mode, each with its unit;
   a metric the workload never exercised reads 0. *)
let result_line ~trace (o : outcome) =
  let names = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    let v = Option.value (List.assoc_opt name o.metrics) ~default:0. in
    Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (json_float v) unit
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (o.failed = 0) o.attempted o.failed
    (String.concat "," (List.map metric names))
