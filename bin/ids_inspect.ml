(* Run-log inspector: per-protocol summary tables, per-round bit profiles,
   and fault-leak breakdowns from the JSONL run log the bench harness
   appends to (ids_runs.jsonl by default; schema versions 2 and 3).

   Examples:
     ids-inspect                         # summarize ./ids_runs.jsonl
     ids-inspect path/to/runs.jsonl
     ids-inspect --protocol sym_dmam     # one protocol's tables only
     ids-inspect --follow ids_serve_runs.jsonl   # tail the live daemon log
     ids-inspect --self-test             # parser + renderer smoke (no file)

   Reading is lenient: the good prefix of a recovered (crash-truncated or
   partially torn) log renders normally, with a note about where and why
   reading stopped; a missing or empty log is "no records yet", not an
   error. *)

module Runlog = Ids_engine.Runlog
module Strategy = Ids_proof.Strategy
module Json = Ids_obs.Json
module Client = Ids_serve.Client
module Request = Ids_serve.Request
open Cmdliner

let ceil_log2 k =
  let rec go b p = if p >= k then b else go (b + 1) (p * 2) in
  if k <= 1 then 0 else go 0 1

(* The paper's bits-per-node bound for the protocols that have a concrete
   constant in the reproduction (E1/E2); asymptotic class otherwise. *)
let bound_for protocol n =
  match protocol with
  | "sym_dmam" | "sym_dmam_sprt" -> string_of_int ((16 * ceil_log2 n) + 28)
  | "sym_dam" -> string_of_int (6 * n * ceil_log2 n)
  | "dsym" -> "O(log n)"
  | "gni" | "gni_single" | "gni_full" | "gni_full_run" | "gni_induced" -> "O(n log n)"
  | _ -> "-"

(* --- grouping ------------------------------------------------------------------ *)

(* One row per (protocol, n, prover, fault): the log is append-only, so the
   last record of a group is the most recent run; [runs] counts how many the
   file holds. First-appearance order is preserved everywhere. *)
type group = { gprotocol : string; gn : int; gprover : string; gfault : string; mutable runs : int; mutable last : Runlog.record }

let group_records records =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (r : Runlog.record) ->
      let fault = Option.value r.Runlog.fault ~default:"" in
      let key = (r.Runlog.protocol, r.Runlog.n, r.Runlog.prover, fault) in
      match Hashtbl.find_opt tbl key with
      | Some g ->
        g.runs <- g.runs + 1;
        g.last <- r
      | None ->
        let g = { gprotocol = r.Runlog.protocol; gn = r.Runlog.n; gprover = r.Runlog.prover; gfault = fault; runs = 1; last = r } in
        Hashtbl.add tbl key g;
        order := g :: !order)
    records;
  List.rev !order

let protocols_in groups =
  List.fold_left (fun acc g -> if List.mem g.gprotocol acc then acc else g.gprotocol :: acc) [] groups
  |> List.rev

(* --- metrics access -------------------------------------------------------------- *)

let counter metrics name =
  match Option.bind metrics (Json.member "counters") with
  | Some (Json.Arr cs) ->
    List.find_opt (fun c -> Json.member "name" c |> Fun.flip Option.bind Json.to_string = Some name) cs
  | _ -> None

let counter_rounds c =
  match Option.bind c (Json.member "rounds") with
  | Some (Json.Arr rows) ->
    Some
      (List.filter_map
      (fun row ->
        match row with
        | Json.Arr [ r; s; m ] -> (
          match (Json.to_int r, Json.to_int s, Json.to_int m) with
          | Some r, Some s, Some m -> Some (r, s, m)
          | _ -> None)
        | _ -> None)
         rows)
  | _ -> None

let counter_total c = Option.bind c (Json.member "total") |> Fun.flip Option.bind Json.to_int

(* --- report sections -------------------------------------------------------------- *)

let summary_table groups =
  List.iter
    (fun protocol ->
      Printf.printf "\n== %s ==\n" protocol;
      Printf.printf "%5s  %-22s %-26s %4s %7s %7s %15s %10s %6s %12s\n" "n" "prover" "fault" "runs"
        "trials" "rate" "95% CI" "bits/node" "max" "paper bound";
      List.iter
        (fun g ->
          if g.gprotocol = protocol then
            let r = g.last in
            Printf.printf "%5d  %-22s %-26s %4d %7d %7.3f [%.3f,%.3f] %10.1f %6d %12s\n" g.gn g.gprover
              (if g.gfault = "" then "-" else g.gfault)
              g.runs r.Runlog.trials r.Runlog.rate r.Runlog.ci_low r.Runlog.ci_high
              r.Runlog.mean_bits r.Runlog.max_bits (bound_for protocol g.gn))
        groups)
    (protocols_in groups)

(* Per-round bit profile of each group's most recent traced (v3 + metrics)
   record: the prover->nodes and nodes->prover counters by round, plus the
   heaviest single-node cell — the max-over-nodes view the paper's per-node
   bounds are stated in. Counters aggregate the whole estimate, so sums are
   shown per trial. *)
let rounds_detail groups =
  let any = ref false in
  List.iter
    (fun g ->
      let metrics = g.last.Runlog.metrics in
      let down = counter metrics "net.from_prover_bits" in
      let up = counter metrics "net.to_prover_bits" in
      match (counter_rounds down, g.last.Runlog.trials) with
      | None, _ | _, 0 -> ()
      | Some down_rounds, trials ->
        if not !any then begin
          any := true;
          print_endline "\n== per-round bit profile (latest traced record per group) ==";
          print_endline "   bits averaged per trial; `max cell` is the heaviest (round, node) cell"
        end;
        let up_rounds = Option.value (counter_rounds up) ~default:[] in
        let t = float_of_int trials in
        Printf.printf "\n%s  n = %d  prover = %s%s  (%d trials)\n" g.gprotocol g.gn g.gprover
          (if g.gfault = "" then "" else Printf.sprintf "  fault = %s" g.gfault)
          trials;
        Printf.printf "  %5s | %14s %14s | %10s\n" "round" "down bits" "up bits" "max cell";
        let rounds =
          List.sort_uniq compare (List.map (fun (r, _, _) -> r) down_rounds @ List.map (fun (r, _, _) -> r) up_rounds)
        in
        List.iter
          (fun round ->
            let pick rows = List.find_opt (fun (r, _, _) -> r = round) rows in
            let sum rows = match pick rows with Some (_, s, _) -> float_of_int s /. t | None -> 0. in
            let cell rows = match pick rows with Some (_, _, m) -> m | None -> 0 in
            Printf.printf "  %5d | %14.1f %14.1f | %10d\n" round (sum down_rounds) (sum up_rounds)
              (max (cell down_rounds) (cell up_rounds)))
          rounds;
        (match (counter_total down, counter_total up) with
        | Some d, Some u ->
          Printf.printf "  total | %14.1f %14.1f |\n" (float_of_int d /. t) (float_of_int u /. t)
        | _ -> ()))
    groups;
  !any

(* Acceptance-rate deltas against each block's fault="none" baseline — the
   E13 leak view. For honest provers a negative delta is completeness loss;
   for adversaries a positive delta is a soundness leak (flagged when it
   clears the baseline's upper confidence bound). *)
let fault_breakdown groups =
  let blocks = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun g ->
      if g.gfault <> "" then begin
        let key = (g.gprotocol, g.gn, g.gprover) in
        if not (Hashtbl.mem blocks key) then begin
          Hashtbl.add blocks key ();
          order := key :: !order
        end
      end)
    groups;
  let any = ref false in
  List.iter
    (fun (protocol, n, prover) ->
      let of_block = List.filter (fun g -> g.gprotocol = protocol && g.gn = n && g.gprover = prover) groups in
      match List.find_opt (fun g -> g.gfault = "none") of_block with
      | None -> ()
      | Some base ->
        if not !any then begin
          any := true;
          print_endline "\n== fault degradation vs the fault=none baseline ==";
          print_endline "   ! = acceptance above the baseline's CI upper bound (soundness leak if the"
          ; print_endline "       prover is an adversary; faults should only add reasons to reject)"
        end;
        Printf.printf "\n%s  n = %d  prover = %s  (baseline rate %.3f)\n" protocol n prover
          base.last.Runlog.rate;
        Printf.printf "  %-36s | %7s %8s | %10s\n" "fault" "rate" "delta" "bits/node";
        List.iter
          (fun g ->
            if g.gfault <> "" && g.gfault <> "none" then
              let r = g.last in
              let delta = r.Runlog.rate -. base.last.Runlog.rate in
              Printf.printf "  %-36s | %7.3f %+8.3f | %10.1f%s\n" g.gfault r.Runlog.rate delta
                r.Runlog.mean_bits
                (if r.Runlog.rate > base.last.Runlog.ci_high then "  !" else ""))
          of_block)
    (List.rev !order);
  !any

(* Frontier view: records whose prover is an encoded cheat strategy (the
   E17 search harness logs the best-found point per protocol under its
   `strategy v1 ...` encoding). The encoding is decoded back through
   Strategy.decode, so a corrupted or hand-edited label is flagged instead
   of silently tabulated; the axis settings are shown without the
   magic/version/seed prefix to keep rows readable. *)
let strategy_prefix = "strategy v1 "

let is_strategy_prover prover =
  String.length prover >= String.length strategy_prefix
  && String.sub prover 0 (String.length strategy_prefix) = strategy_prefix

let strategy_axes prover =
  match Strategy.decode prover with
  | Error e -> Printf.sprintf "INVALID ENCODING (%s)" e
  | Ok s ->
    let names = Strategy.axis_names s.Strategy.protocol in
    let levels = Strategy.levels s.Strategy.protocol in
    String.concat " "
      (Array.to_list
         (Array.mapi
            (fun i name -> Printf.sprintf "%s=%s" name levels.(i).(s.Strategy.point.(i)))
            names))

let frontier_table groups =
  let rows = List.filter (fun g -> is_strategy_prover g.gprover) groups in
  if rows = [] then false
  else begin
    print_endline "\n== empirical soundness frontier (best-found cheat strategies, E17) ==";
    Printf.printf "%-10s %4s  %-58s %-14s %7s %15s  %7s\n" "protocol" "n" "strategy (decoded axes)" "fault"
      "rate" "95% CI" "accepts";
    List.iter
      (fun g ->
        let r = g.last in
        Printf.printf "%-10s %4d  %-58s %-14s %7.4f [%.4f,%.4f]  %4d/%d\n" g.gprotocol g.gn
          (strategy_axes g.gprover)
          (if g.gfault = "" then "-" else g.gfault)
          r.Runlog.rate r.Runlog.ci_low r.Runlog.ci_high r.Runlog.accepts r.Runlog.trials)
      rows;
    true
  end

let report ?protocol records =
  let records =
    match protocol with
    | None -> records
    | Some p -> List.filter (fun (r : Runlog.record) -> r.Runlog.protocol = p) records
  in
  if records = [] then print_endline "no matching records"
  else begin
    let groups = group_records records in
    Printf.printf "%d records, %d groups\n" (List.length records) (List.length groups);
    summary_table groups;
    let frontier = frontier_table groups in
    let traced = rounds_detail groups in
    let faulted = fault_breakdown groups in
    if not traced then
      print_endline "\n(no traced records — run the bench with IDS_TRACE=1 for per-round profiles)";
    ignore faulted;
    ignore frontier
  end

(* --- self-test --------------------------------------------------------------------- *)

let sample_v2 =
  {|{"schema_version":2,"protocol":"sym_dmam","n":16,"prover":"honest","trials":80,"accepts":80,"rate":1,"ci_low":0.954,"ci_high":1,"mean_bits":87.2,"max_bits":92,"domains":4,"stopped_early":false}|}

let sample_v2_fault =
  {|{"schema_version":2,"protocol":"sym_dmam","n":16,"prover":"byzantine:random-perm","fault":"drop=0.05","trials":80,"accepts":6,"rate":0.075,"ci_low":0.035,"ci_high":0.154,"mean_bits":87.2,"max_bits":92,"domains":4,"stopped_early":false}|}

let sample_v2_none =
  {|{"schema_version":2,"protocol":"sym_dmam","n":16,"prover":"byzantine:random-perm","fault":"none","trials":80,"accepts":3,"rate":0.0375,"ci_low":0.0128,"ci_high":0.105,"mean_bits":87.2,"max_bits":92,"domains":4,"stopped_early":false}|}

let sample_v3 =
  {|{"schema_version":3,"protocol":"sym_dam","n":8,"prover":"honest","trials":10,"accepts":10,"rate":1,"ci_low":0.722,"ci_high":1,"mean_bits":150.4,"max_bits":161,"domains":2,"stopped_early":false,"metrics":{"counters":[{"name":"net.from_prover_bits","total":1840,"rounds":[[2,1200,160],[3,640,86]]},{"name":"net.to_prover_bits","total":640,"rounds":[[1,640,86]]}],"histos":[{"name":"mont.pow_bits","buckets":[[5,40]]}],"spans_dropped":0}}|}

let sample_frontier =
  {|{"schema_version":3,"protocol":"sym_dmam","n":8,"prover":"strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none","trials":16384,"accepts":12,"rate":0.00073242,"ci_low":0.00041852,"ci_high":0.00128128,"mean_bits":76,"max_bits":76,"domains":1,"stopped_early":false}|}

let sample_frontier_fault =
  {|{"schema_version":3,"protocol":"sym_dmam","n":8,"prover":"strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none","fault":"crash-vacuous","trials":16384,"accepts":1603,"rate":0.09783936,"ci_low":0.09336987,"ci_high":0.10249527,"mean_bits":76,"max_bits":76,"domains":1,"stopped_early":false}|}

let sample_unknown =
  {|{"schema_version":99,"protocol":"x","n":1,"prover":"p","trials":1,"accepts":1,"rate":1,"ci_low":1,"ci_high":1,"mean_bits":1,"max_bits":1,"domains":1,"stopped_early":false}|}

let self_test () =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("self-test FAILED: " ^ m); exit 1) fmt in
  let ok name line =
    match Runlog.of_line line with Ok r -> r | Error e -> fail "%s did not parse: %s" name e
  in
  let v2 = ok "v2 sample" sample_v2 in
  if v2.Runlog.version <> 2 || v2.Runlog.metrics <> None then fail "v2 sample misread";
  let v2f = ok "v2 fault sample" sample_v2_fault in
  if v2f.Runlog.fault <> Some "drop=0.05" then fail "fault label lost";
  let v3 = ok "v3 sample" sample_v3 in
  if v3.Runlog.version <> 3 then fail "v3 version misread";
  let down = counter v3.Runlog.metrics "net.from_prover_bits" in
  (match counter_total down with
  | Some 1840 -> ()
  | _ -> fail "v3 metrics counter total misread");
  (match counter_rounds down with
  | Some [ (2, 1200, 160); (3, 640, 86) ] -> ()
  | _ -> fail "v3 per-round cells misread");
  (match Runlog.of_line sample_unknown with
  | Error e when String.length e >= 22 && String.sub e 0 22 = "unknown schema_version" -> ()
  | Error e -> fail "wrong error for v99: %s" e
  | Ok _ -> fail "v99 record accepted");
  (match Runlog.of_line "not json at all" with
  | Error _ -> ()
  | Ok _ -> fail "garbage line accepted");
  if bound_for "sym_dmam" 16 <> "92" then fail "paper bound (Protocol 1, n=16) wrong";
  if bound_for "sym_dam" 16 <> "384" then fail "paper bound (Protocol 2, n=16) wrong";
  (* The frontier sample's prover must round-trip through the strategy
     codec — the table decodes it for the axes column. *)
  let fr = ok "frontier sample" sample_frontier in
  if not (is_strategy_prover fr.Runlog.prover) then fail "frontier prover not recognized";
  (match Strategy.decode fr.Runlog.prover with
  | Error e -> fail "frontier prover does not decode: %s" e
  | Ok s ->
    if Strategy.encode s <> fr.Runlog.prover then fail "frontier prover round-trip changed";
    if s.Strategy.protocol <> Strategy.Sym_dmam || s.Strategy.seed <> 0 then
      fail "frontier prover decoded to the wrong strategy");
  (match Strategy.decode "strategy v1 sym_dmam seed=0 perm=warp" with
  | Ok _ -> fail "bogus strategy level accepted"
  | Error e ->
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    if not (contains e "token") then fail "strategy decode error lacks token position: %s" e);
  (* Exercise every renderer section on the embedded samples. *)
  report
    [ v2; v2f; ok "v2 none sample" sample_v2_none; v3; fr; ok "frontier fault sample" sample_frontier_fault ];
  print_endline "\nids-inspect self-test: OK";
  0

(* --- follow mode --------------------------------------------------------------------- *)

(* Tail a live log (the serving daemon's, typically): print each new record
   as one line, resuming from the previous read's good_end. A torn tail is
   the normal mid-append state — stay quiet and retry; a bad line is
   corruption — warn once and stop advancing past the good prefix. *)
let follow_log file protocol =
  let offset = ref 0 in
  let warned = ref (-1) in
  let print_record (r : Runlog.record) =
    match protocol with
    | Some p when r.Runlog.protocol <> p -> ()
    | _ ->
      Printf.printf "%-12s n=%-4d %-28s %-20s trials=%-6d rate=%.4f [%.4f,%.4f] bits/node=%.1f\n%!"
        r.Runlog.protocol r.Runlog.n r.Runlog.prover
        (match r.Runlog.fault with Some f -> "fault=" ^ f | None -> "fault=-")
        r.Runlog.trials r.Runlog.rate r.Runlog.ci_low r.Runlog.ci_high r.Runlog.mean_bits
  in
  Printf.printf "following %s (interrupt to stop)\n%!" file;
  let rec loop () : int =
    (if Sys.file_exists file then
       match Runlog.read_from file ~offset:!offset with
       | Error e -> Printf.eprintf "ids-inspect: %s\n%!" e
       | Ok { Runlog.records; good_end; tail } ->
         List.iter print_record records;
         offset := good_end;
         (match tail with
         | Some (Runlog.Bad_line _ as t) when !warned <> good_end ->
           warned := good_end;
           Printf.eprintf "ids-inspect: %s: %s\n%!" file (Runlog.tail_error_to_string t)
         | _ -> ()));
    Unix.sleepf 0.25;
    loop ()
  in
  loop ()

(* --- live telemetry dashboard -------------------------------------------------------- *)

(* Poll the daemon's telemetry endpoint (a Stats request with format=json)
   and render the service / per-protocol / per-shard tables.  The JSON body
   is produced by Telemetry.to_json; rendering is lenient so a newer daemon
   with extra fields still displays. *)

let jget j path = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
let jint j path = Option.value (Option.bind (jget j path) Json.to_int) ~default:0
let jfloat j path = Option.value (Option.bind (jget j path) Json.to_float) ~default:0.
let jstr j path = Option.value (Option.bind (jget j path) Json.to_string) ~default:"?"

let hist_cols j key =
  Printf.sprintf "%8.2f %8.2f %8.2f" (jfloat j [ key; "mean" ]) (jfloat j [ key; "p50" ])
    (jfloat j [ key; "p99" ])

let render_live socket body =
  match Json.parse body with
  | Error e -> Printf.eprintf "ids-inspect: telemetry body does not parse: %s\n%!" e
  | Ok j ->
    Printf.printf "ids-serve @ %s   up %.1fs   availability %.2f%%   lost deltas %d   flushes %d\n"
      socket (jfloat j [ "uptime_s" ])
      (100. *. jfloat j [ "availability" ])
      (jint j [ "lost_deltas" ]) (jint j [ "flushes" ]);
    (match jget j [ "service" ] with
    | Some (Json.Obj kvs) ->
      print_string "service:";
      List.iter
        (fun (k, v) ->
          match Json.to_int v with
          | Some n -> Printf.printf " %s=%d" k n
          | None -> ())
        kvs;
      print_newline ()
    | _ -> ());
    (match jget j [ "protocols" ] with
    | Some (Json.Arr (_ :: _ as ps)) ->
      Printf.printf "\n%-14s %6s %6s %6s | %26s | %26s | %26s\n" "protocol" "compl" "fail"
        "retry" "queue ms mean/p50/p99" "run ms mean/p50/p99" "total ms mean/p50/p99";
      List.iter
        (fun p ->
          Printf.printf "%-14s %6d %6d %6d | %s | %s | %s\n"
            (jstr p [ "protocol" ])
            (jint p [ "completed" ])
            (jint p [ "failed" ])
            (jint p [ "retries" ])
            (hist_cols p "queue_ms") (hist_cols p "run_ms") (hist_cols p "total_ms"))
        ps
    | _ -> print_endline "\n(no requests observed yet)");
    (match jget j [ "shards" ] with
    | Some (Json.Arr (_ :: _ as ss)) ->
      Printf.printf "\n%5s %8s %4s %7s %5s  %s\n" "shard" "pid" "gen" "frames" "lost"
        "ledger counters";
      List.iter
        (fun s ->
          let counters =
            match jget s [ "counters" ] with
            | Some (Json.Obj kvs) ->
              String.concat " "
                (List.filter_map
                   (fun (k, v) ->
                     Option.map (fun n -> Printf.sprintf "%s=%d" k n) (Json.to_int v))
                   kvs)
            | _ -> ""
          in
          Printf.printf "%5d %8d %4d %7d %5d  %s\n" (jint s [ "wid" ]) (jint s [ "pid" ])
            (jint s [ "generations" ])
            (jint s [ "frames" ])
            (jint s [ "lost_deltas" ])
            (if counters = "" then "(no frames yet)" else counters))
        ss
    | _ -> ())

let fetch_stats socket fmt =
  match Client.connect ~wait:2. socket with
  | Error e -> Error e
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match
          Client.request c { Request.id = "inspect"; op = Request.Stats fmt; trace = None }
        with
        | Ok (Request.Stats_reply { body = Some b; _ }) -> Ok b
        | Ok (Request.Stats_reply { body = None; _ }) ->
          Error "daemon answered without a telemetry body"
        | Ok (Request.Rejected { reject = Request.Bad_request e; _ }) -> Error e
        | Ok _ -> Error "unexpected response to the stats request"
        | Error e -> Error e)

let live socket interval once prom =
  let fmt = if prom then Request.Prom else Request.Json_full in
  let rec loop () =
    match fetch_stats socket fmt with
    | Error e ->
      Printf.eprintf "ids-inspect: %s: %s\n%!" socket e;
      if once then 1
      else begin
        Unix.sleepf interval;
        loop ()
      end
    | Ok body ->
      if not once then print_string "\027[H\027[2J";
      if prom then print_string body else render_live socket body;
      flush stdout;
      if once then 0
      else begin
        Unix.sleepf interval;
        loop ()
      end
  in
  loop ()

(* --- bench trajectory ------------------------------------------------------------------ *)

(* One headline line per committed BENCH_*.json: the repo's performance and
   acceptance trajectory at a glance.  Known artifacts get a real extractor;
   unknown ones still prove they parse.  A parse failure is an error exit so
   `make check` catches a corrupted artifact. *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let jlist j path = match Option.bind (jget j path) Json.to_list with Some l -> l | None -> []

let best_speedup rows key =
  List.fold_left (fun acc r -> Float.max acc (jfloat r [ key ])) 0. rows

let bench_headline name j =
  match name with
  | "BENCH_modarith.json" ->
    let rows = jlist j [ "results" ] in
    let pows = List.filter (fun r -> jstr r [ "op" ] = "pow") rows in
    Printf.sprintf "%d ops timed; best pow speedup x%.2f (Montgomery ctx vs naive)"
      (List.length rows) (best_speedup pows "speedup")
  | "BENCH_setup.json" ->
    let rows = jlist j [ "prime_search" ] in
    Printf.sprintf "%d prime-search ranges; best gated speedup x%.2f" (List.length rows)
      (best_speedup rows "speedup")
  | "BENCH_frontier.json" ->
    let ps = jlist j [ "protocols" ] in
    let sound =
      List.for_all (fun p -> jfloat p [ "best"; "rate" ] <= jfloat p [ "bound" ]) ps
    in
    Printf.sprintf "%d protocols searched; best cheat rate %s the soundness bound on all"
      (List.length ps)
      (if sound then "within" else "ABOVE")
  | "BENCH_serve.json" ->
    Printf.sprintf
      "%d/%d requests under chaos; availability %.2f%%; %.0f rps; p50/p99 %.1f/%.1f ms; \
       bit_identical=%b"
      (jint j [ "requests"; "completed" ])
      (jint j [ "requests"; "sent" ])
      (100. *. jfloat j [ "availability" ])
      (jfloat j [ "throughput_rps" ])
      (jfloat j [ "latency_ms"; "p50" ])
      (jfloat j [ "latency_ms"; "p99" ])
      (jget j [ "bit_identical" ] = Some (Json.Bool true))
  | "BENCH_scale.json" ->
    Printf.sprintf "n=%d; pls_tree %.0f nodes/s; apihash %.0f nodes/s on %d domains; peak rss %.0f MB"
      (jint j [ "n" ])
      (jfloat j [ "pls_tree"; "nodes_per_sec" ])
      (jfloat j [ "apihash"; "nodes_per_sec" ])
      (jint j [ "domains" ])
      (jfloat j [ "peak_rss_mb" ])
  | "BENCH_telemetry.json" ->
    Printf.sprintf
      "ledger_exact=%b under chaos (%d lost deltas counted); trace pids=%d; enabled overhead \
       %.2f%%"
      (jget j [ "ledger_exact" ] = Some (Json.Bool true))
      (jint j [ "lost_deltas" ])
      (jint j [ "trace"; "pids" ])
      (jfloat j [ "overhead"; "overhead_pct" ])
  | _ -> "(parsed OK; no summary extractor)"

let bench_summary dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 11
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if files = [] then begin
    Printf.printf "no BENCH_*.json artifacts in %s\n" dir;
    0
  end
  else begin
    Printf.printf "== bench trajectory (%s) ==\n" dir;
    let failed = ref 0 in
    List.iter
      (fun f ->
        match Json.parse (read_all (Filename.concat dir f)) with
        | Error e ->
          incr failed;
          Printf.printf "%-24s PARSE ERROR: %s\n" f e
        | Ok j ->
          let mode = match jget j [ "mode" ] with Some (Json.Str m) -> m | _ -> "-" in
          Printf.printf "%-24s %-6s %s\n" f mode (bench_headline f j))
      files;
    if !failed > 0 then begin
      Printf.eprintf "ids-inspect: %d bench artifact(s) failed to parse\n" !failed;
      1
    end
    else 0
  end

(* --- CLI ----------------------------------------------------------------------------- *)

let run file protocol self follow live_flag socket interval once prom bench =
  if self then self_test ()
  else
    match bench with
    | Some dir -> bench_summary dir
    | None ->
      if live_flag || prom then live socket interval once prom
      else if follow then follow_log file protocol
  else if not (Sys.file_exists file) then begin
    Printf.printf "%s: no records yet\n" file;
    0
  end
  else
    match Runlog.read_file_lenient file with
    | Error e ->
      Printf.eprintf "ids-inspect: %s\n" e;
      1
    | Ok { Runlog.records; tail; _ } ->
      Printf.printf "%s:\n" file;
      if records = [] && tail = None then print_endline "no records yet"
      else begin
        report ?protocol records;
        match tail with
        | None -> ()
        | Some t ->
          Printf.printf "\n(reading stopped early: %s)\n" (Runlog.tail_error_to_string t)
      end;
      0

let cmd =
  let file_t =
    let doc = "The JSONL run log to inspect." in
    Arg.(value & pos 0 string "ids_runs.jsonl" & info [] ~docv:"FILE" ~doc)
  in
  let protocol_t =
    let doc = "Only show records of this protocol (e.g. sym_dmam, dsym, gni_single)." in
    Arg.(value & opt (some string) None & info [ "protocol" ] ~doc)
  in
  let self_t =
    let doc = "Run the built-in parser/renderer smoke test and exit (reads no files)." in
    Arg.(value & flag & info [ "self-test" ] ~doc)
  in
  let follow_t =
    let doc =
      "Tail the log: print each new record as it is appended (the live view of a \
       running ids-serve daemon). Runs until interrupted."
    in
    Arg.(value & flag & info [ "follow"; "f" ] ~doc)
  in
  let live_t =
    let doc =
      "Live telemetry dashboard: poll a running ids-serve daemon's stats endpoint and \
       render the service / per-protocol latency / per-shard ledger tables. Refreshes \
       until interrupted (see $(b,--once), $(b,--interval))."
    in
    Arg.(value & flag & info [ "live" ] ~doc)
  in
  let socket_t =
    let doc = "The daemon socket the live dashboard connects to." in
    Arg.(value & opt string "ids_serve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let interval_t =
    let doc = "Live dashboard refresh period in seconds." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let once_t =
    let doc = "Render the live dashboard once and exit (scripting / tests)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let prom_t =
    let doc = "With $(b,--live): print the Prometheus text exposition instead of tables." in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let bench_t =
    let doc =
      "Summarize every committed BENCH_*.json artifact in $(docv) (default $(b,.)) as one \
       trajectory table and exit; a non-parsing artifact is an error."
    in
    Arg.(
      value
      & opt ~vopt:(Some ".") (some dir) None
      & info [ "bench-summary" ] ~docv:"DIR" ~doc)
  in
  let doc = "Inspect the machine-readable run log of the IDS bench harness" in
  Cmd.v
    (Cmd.info "ids-inspect" ~version:"1.0.0" ~doc)
    Term.(
      const run $ file_t $ protocol_t $ self_t $ follow_t $ live_t $ socket_t $ interval_t
      $ once_t $ prom_t $ bench_t)

let () = exit (Cmd.eval' cmd)
