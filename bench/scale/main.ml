(* Million-node scale benchmark (EXPERIMENTS.md E19).

   Builds a degree-4 random-circulant expander on the sparse backend and
   runs the two Θ(log n)-advice protocols end to end: the spanning-tree
   proof labeling scheme (Pls.Tree) and the Section 4 tree-aggregable
   eps-API hash (Apihash), whose rounds hold O(n) words of delivered
   state beside the prover's n·k aggregates. Reports nodes/sec per
   protocol, the process's peak RSS and, from traced runs, how an Apihash
   run's wall time splits over its phase spans, and emits
   BENCH_scale.json with the domain count and the commit that produced
   it.

   --smoke (n = 10^4, wired into @runtest-fast) additionally asserts the
   scale path's two contracts: peak RSS stays under 64 MB (an
   O(n^2)-resident regression at n = 10^4 blows through it), and dense- vs
   sparse-backend runs of both protocols are bit-identical. *)

module Rng = Ids_bignum.Rng
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Graph_io = Ids_graph.Graph_io
module Pls = Ids_proof.Pls
module Apihash = Ids_proof.Apihash
module Outcome = Ids_proof.Outcome

let default_n = 1_000_000
let smoke_n = 10_000
let degree = 4
let graph_seed = 0x5ca1e
let run_seed = 11

(* Peak resident set in bytes: VmHWM from /proc/self/status (Linux), else
   the GC's top heap size — an underestimate, but monotone in the same
   regressions the smoke bound exists to catch. *)
let peak_rss_bytes () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line ->
            (try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (kb * 1024))
             with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
          | exception End_of_file -> None
        in
        scan ())
  in
  let fallback () =
    let st = Gc.quick_stat () in
    st.Gc.top_heap_words * (Sys.word_size / 8)
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some b -> b
  | None -> fallback ()

(* Monotonic clock: wall-clock steps (NTP slews, suspend) cannot land in a
   timing. *)
let timed f =
  let t0 = Ids_obs.Obs.now_ns () in
  let x = f () in
  (x, float_of_int (Ids_obs.Obs.now_ns () - t0) *. 1e-9)

(* [times] ascending: the head is the best run, the reported figure (a
   shared host's interference only ever slows a run down); the rest is the
   spread committed beside it. *)
type proto_result = { times : float list; accepted : bool; bits_per_node : int }

let best r = List.hd r.times
let median r = List.nth r.times (List.length r.times / 2)
let worst r = List.nth r.times (List.length r.times - 1)

(* [runs] timed executions after a full major collection each; the verdict
   and bit count must not differ between them. *)
let repeat ~runs exec =
  let results =
    List.init runs (fun _ ->
        Gc.full_major ();
        timed exec)
  in
  let accepted, bits_per_node = fst (List.hd results) in
  if List.exists (fun (r, _) -> r <> (accepted, bits_per_node)) results then begin
    prerr_endline "FAIL: repeated runs disagree";
    exit 1
  end;
  { times = List.sort Float.compare (List.map snd results); accepted; bits_per_node }

let run_pls g =
  repeat ~runs:1 (fun () ->
      let verdict = Pls.Tree.verify g (Pls.Tree.honest g 0) in
      (verdict.Pls.accepted, verdict.Pls.advice_bits_per_node))

let apihash_runs = 3

let run_apihash g =
  repeat ~runs:apihash_runs (fun () ->
      let out = Apihash.run ~seed:run_seed ~root:0 g in
      (out.Outcome.accepted, out.Outcome.max_bits_per_node))

(* An Apihash run's phases, as its own Obs spans name them, in run order:
   the prover's three (BFS beside the power tables, the row terms, the
   accumulation) sit between Arthur and the Merlin rounds; "run" is the
   whole run's span. *)
let phases =
  [ ("arthur", "apihash.arthur");
    ("bfs + tables", "apihash.bfs_tables");
    ("row terms", "apihash.row_terms");
    ("accumulate", "apihash.accumulate");
    ("merlin", "apihash.merlin");
    ("decide", "apihash.decide");
    ("run", "apihash.run")
  ]

(* [apihash_runs] traced runs with spans on and every counter filtered
   out, so the rounds charge the ledger as untraced runs do and the spans
   are the only cost: per phase, the median of its span's milliseconds. *)
let phase_split g =
  let module Obs = Ids_obs.Obs in
  let traced () =
    Gc.full_major ();
    Obs.reset ();
    Obs.set_metric_filter (Some []);
    Obs.set_enabled true;
    ignore (Apihash.run ~seed:run_seed ~root:0 g);
    Obs.set_enabled false;
    Obs.set_metric_filter None;
    let spans = Obs.spans () in
    fun name ->
      let ns = List.fold_left (fun acc (s : Obs.span_record) -> if s.Obs.sname = name then acc + s.Obs.dur_ns else acc) 0 spans in
      float_of_int ns *. 1e-6
  in
  let samples = List.init apihash_runs (fun _ -> traced ()) in
  List.map
    (fun (label, name) -> (label, List.nth (List.sort Float.compare (List.map (fun ms -> ms name) samples)) (apihash_runs / 2)))
    phases

let report_split ~domains split =
  let run = List.assoc "run" split in
  Printf.printf "  apihash phase split (traced, median of %d runs, %d domains):\n" apihash_runs domains;
  let row label ms = Printf.printf "    %-17s %8.1f ms  %5.1f%%\n" label ms (100. *. ms /. run) in
  List.iter (fun (label, ms) -> if label <> "run" then row label ms) split;
  row "other" (run -. List.fold_left (fun acc (label, ms) -> if label = "run" then acc else acc +. ms) 0. split);
  Printf.printf "    %-17s %8.1f ms\n%!" "run" run

(* The commit the bench ran on, from git when it runs in a clone, with
   "-dirty" when the tracked files differ from it; "unknown" otherwise. *)
let commit_id () =
  let read cmd =
    match Unix.open_process_in cmd with
    | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)
    | exception Unix.Unix_error _ -> None
  in
  match read "git rev-parse HEAD 2>/dev/null" with
  | Some c when c <> "" ->
    let dirty = read "git status --porcelain --untracked-files=no 2>/dev/null" <> None in
    if dirty then c ^ "-dirty" else c
  | _ -> "unknown"

let check name cond = if not cond then begin Printf.eprintf "FAIL: %s\n%!" name; exit 1 end

(* Dense and sparse backends must produce the same graph and bit-identical
   protocol outcomes (same seeds, same draws). Run at a size where the
   dense backend is still cheap. *)
let backend_equality_smoke () =
  let n = 600 in
  let build repr = Family.expander ~repr (Rng.create graph_seed) ~n ~degree in
  let gd = build Graph.Dense and gs = build Graph.Sparse in
  check "smoke: dense/sparse expander Graph.equal" (Graph.equal gd gs);
  let pd = run_pls gd and ps = run_pls gs in
  check "smoke: PLS accepts on both backends" (pd.accepted && ps.accepted);
  check "smoke: PLS bits agree across backends" (pd.bits_per_node = ps.bits_per_node);
  let od = Apihash.run ~seed:run_seed ~root:0 gd and os = Apihash.run ~seed:run_seed ~root:0 gs in
  check "smoke: apihash outcome bit-identical across backends" (od = os);
  check "smoke: apihash accepts" od.Outcome.accepted

let emit_json path ~n ~smoke ~graph_seconds ~sparse6_bytes ~pls ~api ~(params : Apihash.params)
    ~peak_rss ~split =
  let buf = Buffer.create 1024 in
  let proto name r =
    Printf.sprintf
      "\"%s\": {\"seconds\": %.3f, \"nodes_per_sec\": %.0f, \"accepted\": %b, \"bits_per_node\": %d, \
       \"runs\": %d, \"best_seconds\": %.3f, \"median_seconds\": %.3f, \"max_seconds\": %.3f}"
      name (best r) (float_of_int n /. best r) r.accepted r.bits_per_node (List.length r.times) (best r)
      (median r) (worst r)
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"bench\": \"scale\", \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"commit\": \"%s\", \"domains\": %d,\n" (commit_id ()) params.Apihash.domains);
  Buffer.add_string buf
    (Printf.sprintf "  \"n\": %d, \"degree\": %d, \"repr\": \"sparse\", \"graph_seed\": %d, \"run_seed\": %d,\n"
       n degree graph_seed run_seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"graph_build_seconds\": %.3f, \"sparse6_bytes\": %d,\n" graph_seconds sparse6_bytes);
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (proto "pls_tree" pls));
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (proto "apihash" api));
  Buffer.add_string buf
    (Printf.sprintf "  \"apihash_phase_ms\": {%s},\n"
       (String.concat ", " (List.map (fun (label, ms) -> Printf.sprintf "\"%s\": %.1f" label ms) split)));
  Buffer.add_string buf
    (Printf.sprintf "  \"apihash_q\": %d, \"apihash_copies\": %d,\n" params.Apihash.q
       params.Apihash.copies);
  Buffer.add_string buf (Printf.sprintf "  \"peak_rss_mb\": %.1f\n" (peak_rss /. 1048576.));
  Buffer.add_string buf "}\n";
  let s = Buffer.contents buf in
  let oc = open_out path in
  output_string oc s;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let smoke = ref false and out_path = ref "BENCH_scale.json" and n = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "-o" :: path :: rest ->
      out_path := path;
      parse rest
    | "-n" :: v :: rest ->
      n := int_of_string v;
      parse rest
    | arg :: _ ->
      Printf.eprintf "usage: %s [--smoke] [-o PATH] [-n N]\n" Sys.argv.(0);
      ignore arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let n = if !n > 0 then !n else if !smoke then smoke_n else default_n in
  Printf.printf "scale bench: n = %d, degree = %d (%s)\n%!" n degree
    (if !smoke then "smoke" else "full");
  let g, graph_seconds =
    timed (fun () -> Family.expander ~repr:Graph.Sparse (Rng.create graph_seed) ~n ~degree)
  in
  Printf.printf "  graph build         %8.3f s\n%!" graph_seconds;
  let s6, s6_seconds = timed (fun () -> Graph_io.to_sparse6 g) in
  let sparse6_bytes = String.length s6 in
  Printf.printf "  sparse6 encode      %8.3f s  (%d bytes)\n%!" s6_seconds sparse6_bytes;
  let report name r =
    Printf.printf "  %-19s %8.3f s  (%.0f nodes/s, %d bits/node, %s; best of %d, median %.3f s, max %.3f s)\n%!"
      name (best r) (float_of_int n /. best r) r.bits_per_node
      (if r.accepted then "ACCEPT" else "REJECT")
      (List.length r.times) (median r) (worst r)
  in
  let pls = run_pls g in
  report "pls_tree" pls;
  let api = run_apihash g in
  report "apihash" api;
  let params = Apihash.params_for ~seed:run_seed g in
  let split = phase_split g in
  report_split ~domains:params.Apihash.domains split;
  let peak_rss = float_of_int (peak_rss_bytes ()) in
  Printf.printf "  peak RSS            %8.1f MB\n%!" (peak_rss /. 1048576.);
  check "pls_tree accepts" pls.accepted;
  check "apihash accepts" api.accepted;
  check "sparse6 round-trips" (Graph.equal g (Graph_io.of_sparse6 s6));
  if !smoke then begin
    (* An O(n²)-resident regression at n = 10⁴ needs ~100 MB for one
       byte-per-cell structure alone; the sparse path reads about 10 MB. *)
    let bound_mb = 64. in
    check
      (Printf.sprintf "smoke: peak RSS %.1f MB under %.0f MB bound" (peak_rss /. 1048576.) bound_mb)
      (peak_rss /. 1048576. < bound_mb);
    backend_equality_smoke ();
    Printf.printf "  backend equality    OK (dense/sparse bit-identical)\n%!"
  end;
  emit_json !out_path ~n ~smoke:!smoke ~graph_seconds ~sparse6_bytes ~pls ~api ~params ~peak_rss ~split
