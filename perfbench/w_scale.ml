(* scale_apihash: one honest Apihash run on a degree-4 sparse expander with
   n = 2^18, ingested through a sparse6 round trip. Nearly all work is in
   the hash row terms, the tree aggregation, BFS and the streamed Network
   folds; the working set (~100 MB) is far beyond the L2 cache. *)

module Obs = Ids_obs.Obs
module Rng = Ids_bignum.Rng
module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Family = Ids_graph.Family
module Graph_io = Ids_graph.Graph_io
module Spanning_tree = Ids_graph.Spanning_tree
module Api = Ids_hash.Api
module Apihash = Ids_proof.Apihash
module Aggregation = Ids_proof.Aggregation
module Outcome = Ids_proof.Outcome

let degree = 4
let k = 3
let root = 0

type inputs = {
  g : Graph.t;
  params : Apihash.params;
  setup_s : float list;
  expander_s : float list;
  sparse6_s : float list;
  params_s : float list;
}

(* Inputs ready: the expander drawn from the seed, a sparse6 encode/decode
   round trip (the graph the protocol runs on is the decoded one), and the
   run's parameter draw. *)
let setup_once ~n ~seed =
  Gc.full_major ();
  let g0, ex = Kit.time (fun () -> Family.expander ~repr:Graph.Sparse (Rng.create seed) ~n ~degree) in
  let g, s6 = Kit.time (fun () -> Graph_io.of_sparse6 (Graph_io.to_sparse6 g0)) in
  if not (Graph.equal g g0) then failwith "scale_apihash: sparse6 round trip changed the graph";
  let params, ps = Kit.time (fun () -> Apihash.params_for ~k ~seed g) in
  { g; params; setup_s = [ ex +. s6 +. ps ]; expander_s = [ ex ]; sparse6_s = [ s6 ]; params_s = [ ps ] }

(* Set-up is repeated once after every run (the copy is dropped), so its
   median spans the whole window rather than one moment of a shared host's
   speed. *)
let setup_again ~n ~seed inp =
  let r = setup_once ~n ~seed in
  { inp with
    setup_s = r.setup_s @ inp.setup_s;
    expander_s = r.expander_s @ inp.expander_s;
    sparse6_s = r.sparse6_s @ inp.sparse6_s;
    params_s = r.params_s @ inp.params_s
  }

(* The oracle: an honest run accepts, and every node receives exactly the
   prover bits the protocol's analysis charges it. *)
let correct inp (o : Outcome.t) =
  o.Outcome.accepted
  && o.Outcome.max_response_bits
     = Apihash.response_bits_per_node inp.params.Apihash.field ~k (Graph.n inp.g)

let run ?prover ~seed inp = Apihash.run ?prover ~k ~seed ~root inp.g

let untraced ~n ~seed ~seconds =
  let inp = ref (setup_once ~n ~seed) in
  let t0 = Kit.now_ns () in
  let times = ref [] and failed = ref 0 in
  while !times = [] || Kit.seconds_since t0 < seconds do
    Gc.full_major ();
    let o, s = Kit.time (fun () -> run ~seed !inp) in
    if not (correct !inp o) then incr failed;
    times := s :: !times;
    inp := setup_again ~n ~seed !inp
  done;
  let inp = !inp in
  let runs = List.length !times in
  (* Throughput is best-of-runs (the ROADMAP's convention for this number):
     a window holds only four or five runs, and interference from other
     tenants of a shared host only ever slows a run down. *)
  let best = Kit.quantile 0. !times in
  Printf.printf "scale_apihash: n = %d, %d runs, best %.3f s, median %.3f s, failed_ratio %g\n" n runs best
    (Kit.median !times)
    (float_of_int !failed /. float_of_int runs);
  { Kit.attempted = runs;
    failed = !failed;
    metrics =
      [ ("setup_s", Kit.median inp.setup_s);
        ("nodes_per_s", float_of_int n /. best);
        ("peak_rss_mb", Kit.peak_rss_mb ());
        ("trials_per_s", 1. /. best);
        ("requests_per_s", 1. /. best);
        ("latency_p50_ms", 1000. *. Kit.median !times);
        ("latency_p99_ms", 1000. *. Kit.tail_quantile 0.99 !times)
      ];
    samples = [ ("setup", List.length inp.setup_s); ("runs", runs) ]
  }

type pair = {
  untraced_s : float;
  wall : float;  (** the traced run's apihash.run span *)
  prover : float;
  net : float;
  net_spans : int;
  minor_words : float;
  major : int;
  from_prover : int;
  to_prover : int;
}

let sec ns = float_of_int ns *. 1e-9

(* One untraced run (which also gives the allocation figures, free of
   Obs's own cells), then the same run traced, with the prover wrapped in a
   bench-owned span; returns how many of the two failed their oracle.
   [spec] receives the run's root spec. *)
let traced_pair ~seed ~spec inp =
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let plain, untraced_s = Kit.time (fun () -> run ~seed inp) in
  let gc1 = Gc.quick_stat () in
  Gc.full_major ();
  Obs.reset ();
  Obs.set_enabled true;
  let prover params s ~root g =
    spec := Some s;
    Obs.span "bench.prover" (fun () -> Apihash.honest params s ~root g)
  in
  let traced = run ~prover ~seed inp in
  Obs.set_enabled false;
  let total name = Kit.span_total ~pred:(String.equal name) () in
  let is_net = String.starts_with ~prefix:"net." in
  let snap = Obs.snapshot () in
  ( Bool.to_int (not (correct inp plain)) + Bool.to_int (not (correct inp traced)),
    { untraced_s;
      wall = sec (total "apihash.run");
      prover = sec (total "bench.prover");
      net = sec (Kit.span_total ~pred:is_net ());
      net_spans = List.length (List.filter (fun (s : Obs.span_record) -> is_net s.Obs.sname) (Obs.spans ()));
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major = gc1.Gc.major_collections - gc0.Gc.major_collections;
      from_prover = Obs.counter_total snap "net.from_prover_bits";
      to_prover = Obs.counter_total snap "net.to_prover_bits"
    } )

type parts = { nbhd : float; row_term : float; bfs : float; sums : float; checks : float }

(* The run's layers called one at a time, each under a bench-owned span:
   closed neighbourhoods alone, then neighbourhood + row term over all n
   rows with the run's spec (the prover's [term v], results dropped as the
   prover drops them), the BFS tree, one scalar aggregation over it with
   precomputed terms, and the verifier's per-node tree and neighbour
   checks. *)
let separate_calls inp spec =
  let g = inp.g and f = inp.params.Apihash.field in
  let n = Graph.n g in
  Obs.reset ();
  Obs.set_enabled true;
  let width = ref 0 in
  Obs.span "bench.closed_neighborhood" (fun () ->
      for v = 0 to n - 1 do
        width := !width + Bitset.cardinal (Graph.closed_neighborhood g v)
      done);
  let term0 = Array.make n 0 in
  Obs.span "bench.term" (fun () ->
      for v = 0 to n - 1 do
        term0.(v) <- (Api.row_term f spec ~n ~row:v (Graph.closed_neighborhood g v)).(0)
      done);
  let tree = Obs.span "bench.bfs" (fun () -> Spanning_tree.bfs g root) in
  let sums = Obs.span "bench.honest_sums" (fun () -> Aggregation.honest_sums f tree ~term:(Array.get term0)) in
  let parent = tree.Spanning_tree.parent and dist = tree.Spanning_tree.dist in
  let accepted =
    Obs.span "bench.local_checks" (fun () ->
        let ok = ref true in
        for v = 0 to n - 1 do
          let consistent = Bitset.fold (fun u acc -> acc && u <> v) (Graph.neighbors g v) true in
          let kids = Aggregation.children g ~parent v in
          ok := !ok && consistent && Aggregation.tree_check g ~root ~parent ~dist v && List.length kids < n
        done;
        !ok)
  in
  Obs.set_enabled false;
  if not (accepted && Array.length sums = n && !width = n * (degree + 1)) then
    failwith "scale_apihash: honest labels fail the local checks";
  let per name = sec (Kit.span_total ~pred:(String.equal name) ()) in
  let nbhd = per "bench.closed_neighborhood" /. float_of_int n in
  { nbhd;
    row_term = (per "bench.term" /. float_of_int n) -. nbhd;
    bfs = per "bench.bfs";
    sums = per "bench.honest_sums";
    checks = per "bench.local_checks"
  }

let traced ~n ~seed ~seconds =
  let inp = ref (setup_once ~n ~seed) in
  let spec = ref None in
  let t0 = Kit.now_ns () in
  let pairs = ref [] and failed = ref 0 in
  while !pairs = [] || Kit.seconds_since t0 < seconds do
    let bad, p = traced_pair ~seed ~spec !inp in
    failed := !failed + bad;
    pairs := p :: !pairs;
    inp := setup_again ~n ~seed !inp
  done;
  let inp = !inp in
  let spec = match !spec with Some s -> s | None -> failwith "scale_apihash: prover never ran" in
  let parts = separate_calls inp spec in
  let pairs = !pairs in
  let med f = Kit.median (List.map f pairs) in
  let wall = med (fun p -> p.wall) and prover = med (fun p -> p.prover) and net = med (fun p -> p.net) in
  let params_s = Kit.median inp.params_s in
  let nf = float_of_int n and kf = float_of_int k in
  let per_row = parts.nbhd +. parts.row_term in
  let rows =
    [ { Kit.layer = "Ids_network"; what = "net.* spans (streamed folds)"; self_s = net; count = (List.hd pairs).net_spans };
      { layer = "Ids_graph"; what = "bfs + (k+1)n closed_neighborhood"; self_s = parts.bfs +. ((kf +. 1.) *. nf *. parts.nbhd); count = ((k + 1) * n) + 1 };
      { layer = "Ids_hash"; what = "(k+1)n Api.row_term"; self_s = (kf +. 1.) *. nf *. parts.row_term; count = (k + 1) * n };
      { layer = "Ids_proof"; what = "k honest_sums + n local checks"; self_s = (kf *. parts.sums) +. parts.checks; count = k + n };
      { layer = "Ids_proof"; what = "prover span self (flatten, finalize)"; self_s = prover -. parts.bfs -. (kf *. nf *. per_row) -. (kf *. parts.sums); count = 1 };
      { layer = "Ids_bignum"; what = "params_for prime draw"; self_s = params_s; count = 1 }
    ]
  in
  let ratio = Kit.layer_table ~title:(Printf.sprintf "scale_apihash traced run, n = %d" n) ~base:wall rows in
  let overhead = med (fun p -> 100. *. (p.wall -. p.untraced_s) /. p.untraced_s) in
  Printf.printf "tracing overhead: %+.2f%% (traced apihash.run vs untraced run, median of %d pairs)\n"
    overhead (List.length pairs);
  let last = List.hd pairs in
  { Kit.attempted = 2 * List.length pairs;
    failed = !failed;
    metrics =
      [ ("graph.expander_s", Kit.median inp.expander_s);
        ("graph_io.sparse6_s", Kit.median inp.sparse6_s);
        ("apihash.params_s", params_s);
        ("apihash.prover_s", prover);
        ("apihash.verify_s", med (fun p -> p.wall -. p.prover));
        ("net.fold_s", net);
        ("spanning_tree.bfs_s", parts.bfs);
        ("aggregation.honest_sums_s", parts.sums);
        ("api.row_term_ns", 1e9 *. parts.row_term);
        ("api.row_term_share", (kf +. 1.) *. nf *. parts.row_term /. wall);
        ("gc.minor_words_per_node", med (fun p -> p.minor_words) /. nf);
        ("gc.major_collections", float_of_int last.major);
        ("net.from_prover_bits", float_of_int last.from_prover);
        ("net.to_prover_bits", float_of_int last.to_prover);
        ("trace.overhead_pct", overhead);
        ("trace.layer_sum_ratio", ratio)
      ];
    samples = [ ("setup", List.length inp.setup_s); ("pairs", List.length pairs) ]
  }
