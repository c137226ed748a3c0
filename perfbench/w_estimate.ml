(* estimate_mix: a stream of two-domain Engine.run estimates of 400 trials
   each, round-robin over the nine catalog cases in a seed-shuffled order,
   every 7th estimate under 10% message drops (the seed places the faults).
   The work is thousands of short trials on 6-21 node graphs: provers,
   verifiers, the prime search inside every sym_dmam and dsym trial, Nat
   arithmetic, the fault path, and the engine's domain spawn and chunking. *)

module Obs = Ids_obs.Obs
module Rng = Ids_bignum.Rng
module Fault = Ids_network.Fault
module Engine = Ids_engine.Engine
module Catalog = Ids_serve.Catalog
module Adversary = Ids_proof.Adversary

let trials = 400
let domains = 2
let fault_every = 7
let fault = Fault.drop_only 0.1

(* Catalog.entries builds its instances once per process; later set-up
   samples time Adversary.cases, the construction it caches. One sample is
   taken before every batch, so the median spans the whole window rather
   than one moment of a shared host's speed. *)
let setup () =
  let entries, first = Kit.time Catalog.entries in
  (Array.of_list entries, first)

let setup_again () = snd (Kit.time (fun () -> ignore (Adversary.cases ())))

(* Estimate i runs catalog entry [order.(i mod 9)], faulted when
   [(i + phase) mod 7 = 0]; one batch of 63 covers every (entry, fault)
   pairing the schedule produces. *)
let schedule ~seed entries =
  let rng = Rng.create seed in
  let order = Array.init (Array.length entries) Fun.id in
  Rng.shuffle rng order;
  let phase = Rng.int rng fault_every in
  fun i -> (entries.(order.(i mod Array.length order)), (i + phase) mod fault_every = 0)

let batch_size entries = Array.length entries * fault_every

let run_estimate ?(wrap = fun f -> f) ?(domains = domains) (e : Catalog.entry) ~faulted =
  let fault = if faulted then fault else Fault.none in
  Engine.run ~domains ~trials (wrap (fun seed -> e.Catalog.run ~fault seed))

(* The oracle: each (entry, fault) estimate equals its pin. *)
let check (e : Catalog.entry) ~faulted (est : Engine.estimate) =
  let key = Pins.key ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy ~faulted in
  let got = (est.Engine.accepts, est.Engine.mean_bits, est.Engine.max_bits) in
  match List.assoc_opt key Pins.estimates with
  | Some want when want = got -> true
  | want ->
    let a, m, x = got in
    Printf.printf "MISMATCH %s: got (%d, %h, %d)%s\n" key a m x
      (match want with
      | Some (a, m, x) -> Printf.sprintf ", pinned (%d, %h, %d)" a m x
      | None -> ", no pin");
    false

type batch = { wall : float; trials_done : int; nodes : int; estimates : int; latencies : float list }

(* One batch of consecutive estimates [first .. first + size - 1]. With
   [observe], each estimate runs with Obs on and [observe] reads its spans
   and metrics before the next one clears them. *)
let run_batch ?observe sched ~first ~size failed =
  let lat = ref [] and nodes = ref 0 in
  let t0 = Kit.now_ns () in
  for i = first to first + size - 1 do
    let e, faulted = sched i in
    let est, s =
      match observe with
      | None -> Kit.time (fun () -> run_estimate e ~faulted)
      | Some observe ->
        Obs.reset ();
        Obs.set_enabled true;
        let wrap f seed = Obs.span "bench.trial" (fun () -> f seed) in
        let r = Kit.time (fun () -> Obs.span "bench.estimate" (fun () -> run_estimate ~wrap e ~faulted)) in
        Obs.set_enabled false;
        observe ();
        r
    in
    if not (check e ~faulted est) then incr failed;
    lat := s :: !lat;
    nodes := !nodes + (trials * e.Catalog.n)
  done;
  { wall = Kit.seconds_since t0; trials_done = size * trials; nodes = !nodes; estimates = size; latencies = !lat }

let rate f batches = Kit.median (List.map (fun b -> float_of_int (f b) /. b.wall) batches)

let untraced ~seed ~seconds ~smoke =
  let entries, first_setup = setup () in
  let sched = schedule ~seed entries in
  let size = if smoke then Array.length entries else batch_size entries in
  let failed = ref 0 and batches = ref [] and setup_s = ref [ first_setup ] in
  let t0 = Kit.now_ns () in
  while !batches = [] || Kit.seconds_since t0 < seconds do
    if !batches <> [] then setup_s := setup_again () :: !setup_s;
    let first = size * List.length !batches in
    batches := run_batch sched ~first ~size failed :: !batches
  done;
  let batches = !batches in
  let lat = List.concat_map (fun b -> b.latencies) batches in
  let attempted = List.length lat in
  Printf.printf "estimate_mix: %d estimates of %d trials in %d batches, failed_ratio %g\n" attempted trials
    (List.length batches)
    (float_of_int !failed /. float_of_int attempted);
  { Kit.attempted;
    failed = !failed;
    metrics =
      [ ("setup_s", Kit.median !setup_s);
        ("nodes_per_s", rate (fun b -> b.nodes) batches);
        ("peak_rss_mb", Kit.peak_rss_mb ());
        ("trials_per_s", rate (fun b -> b.trials_done) batches);
        ("requests_per_s", rate (fun b -> b.estimates) batches);
        ("latency_p50_ms", 1000. *. Kit.median lat);
        ("latency_p99_ms", 1000. *. Kit.tail_quantile 0.99 lat)
      ];
    samples = [ ("setup", List.length !setup_s); ("batches", List.length batches); ("estimates", attempted) ]
  }

(* Per-estimate accounting over [domains] x wall of capacity. *)
type acct = {
  mutable est : int;
  mutable wall_ns : int;
  mutable idle_ns : int;  (** before each domain's first chunk + after its last *)
  mutable chunk_ns : int;
  mutable chunks : int;
  mutable trial_ns : int;
  mutable net_ns : int;
  mutable counters : Obs.snapshot;
}

let observe acct () =
  let spans = Obs.spans () in
  let est =
    match List.find_opt (fun (s : Obs.span_record) -> s.Obs.sname = "bench.estimate") spans with
    | Some s -> s
    | None -> failwith "estimate_mix: bench.estimate span missing"
  in
  let e0 = est.Obs.start_ns and e1 = est.Obs.start_ns + est.Obs.dur_ns in
  let first = Hashtbl.create 4 and last = Hashtbl.create 4 in
  List.iter
    (fun (s : Obs.span_record) ->
      let d = s.Obs.sdomain and st = s.Obs.start_ns and en = s.Obs.start_ns + s.Obs.dur_ns in
      match s.Obs.sname with
      | "scheduler.chunk" ->
        acct.chunk_ns <- acct.chunk_ns + s.Obs.dur_ns;
        acct.chunks <- acct.chunks + 1;
        Hashtbl.replace first d (Int.min st (Option.value (Hashtbl.find_opt first d) ~default:max_int));
        Hashtbl.replace last d (Int.max en (Option.value (Hashtbl.find_opt last d) ~default:min_int))
      | "bench.trial" -> acct.trial_ns <- acct.trial_ns + s.Obs.dur_ns
      | name when String.starts_with ~prefix:"net." name -> acct.net_ns <- acct.net_ns + s.Obs.dur_ns
      | _ -> ())
    spans;
  let busy_domains = Hashtbl.length first in
  Hashtbl.iter (fun d st -> acct.idle_ns <- acct.idle_ns + (st - e0) + (e1 - Hashtbl.find last d)) first;
  acct.idle_ns <- acct.idle_ns + ((domains - busy_domains) * est.Obs.dur_ns);
  acct.est <- acct.est + 1;
  acct.wall_ns <- acct.wall_ns + est.Obs.dur_ns;
  acct.counters <- Obs.merge acct.counters (Obs.snapshot ())

(* Single-domain cost of one trial of each catalog entry (untraced, no
   faults), and the allocation per trial of the unfaulted mix. *)
let per_entry_costs entries failed =
  let minor = ref 0. in
  let costs =
    Array.map
      (fun (e : Catalog.entry) ->
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let est, s = Kit.time (fun () -> run_estimate ~domains:1 e ~faulted:false) in
        minor := !minor +. (Gc.minor_words () -. w0);
        if not (check e ~faulted:false est) then incr failed;
        (e.Catalog.protocol, 1e6 *. s /. float_of_int trials))
      entries
  in
  (costs, !minor /. float_of_int (trials * Array.length entries))

let traced ~seed ~seconds ~smoke =
  let entries, _ = setup () in
  let sched = schedule ~seed entries in
  let size = if smoke then Array.length entries else batch_size entries in
  let failed = ref 0 in
  let costs, minor_per_trial = per_entry_costs entries failed in
  let acct = { est = 0; wall_ns = 0; idle_ns = 0; chunk_ns = 0; chunks = 0; trial_ns = 0; net_ns = 0; counters = Obs.empty } in
  let plain = ref [] and traced = ref [] in
  let t0 = Kit.now_ns () in
  while !traced = [] || Kit.seconds_since t0 < seconds do
    let first = size * (List.length !plain + List.length !traced) in
    plain := run_batch sched ~first ~size failed :: !plain;
    traced := run_batch ~observe:(observe acct) sched ~first:(first + size) ~size failed :: !traced
  done;
  let sec ns = float_of_int ns *. 1e-9 in
  let capacity = float_of_int domains *. sec acct.wall_ns in
  let rows =
    [ { Kit.layer = "Ids_engine"; what = "domain spawn + tail (before/after chunks)"; self_s = sec acct.idle_ns; count = domains * acct.est };
      { layer = "Ids_engine"; what = "scheduler.chunk self (chunk - trials)"; self_s = sec (acct.chunk_ns - acct.trial_ns); count = acct.chunks };
      { layer = "Ids_proof"; what = "trial self (trial - net.*)"; self_s = sec (acct.trial_ns - acct.net_ns); count = acct.est * trials };
      { layer = "Ids_network"; what = "net.* spans"; self_s = sec acct.net_ns; count = acct.est * trials }
    ]
  in
  let ratio =
    Kit.layer_table
      ~title:(Printf.sprintf "estimate_mix traced batches, %d estimates x %d domains" acct.est domains)
      ~base:capacity rows
  in
  let trials_of b = b.trials_done in
  let overhead = 100. *. ((rate trials_of !plain /. rate trials_of !traced) -. 1.) in
  Printf.printf "tracing overhead: %+.2f%% (untraced vs traced batch trials/s, %d + %d batches)\n" overhead
    (List.length !plain) (List.length !traced);
  let traced_trials = float_of_int (acct.est * trials) in
  let per_trial name = float_of_int (Obs.counter_total acct.counters name) /. traced_trials in
  let proto p =
    let xs = Array.to_list costs |> List.filter (fun (q, _) -> q = p) |> List.map snd in
    (Printf.sprintf "proof.%s.trial_us" p, Kit.mean xs)
  in
  let hits = Obs.counter_total acct.counters "memo.bfs.hit"
  and misses = Obs.counter_total acct.counters "memo.bfs.miss" in
  let attempted =
    Array.length entries + List.fold_left (fun a b -> a + b.estimates) 0 (!plain @ !traced)
  in
  { Kit.attempted;
    failed = !failed;
    metrics =
      List.map proto [ "sym_dmam"; "dsym"; "sym_dam"; "gni"; "pls_tree" ]
      @ [ ("engine.busy_ratio", sec acct.trial_ns /. capacity);
          ("engine.idle_us_per_estimate", 1e6 *. sec acct.idle_ns /. float_of_int acct.est);
          ("net.span_share", float_of_int acct.net_ns /. float_of_int acct.trial_ns);
          ("prime.candidates_per_trial", per_trial "prime.candidates");
          ("prime.mr_rounds_per_trial", per_trial "prime.mr_rounds");
          ("net.fault_decisions_per_trial", per_trial "net.fault_decisions");
          ("net.fault_drops_per_trial", per_trial "net.fault_drops");
          ("memo.bfs.hit_ratio", if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
          ("gc.minor_words_per_trial", minor_per_trial);
          ("trace.overhead_pct", overhead);
          ("trace.layer_sum_ratio", ratio)
        ];
    samples =
      [ ("plain_batches", List.length !plain); ("traced_batches", List.length !traced); ("traced_estimates", acct.est) ]
  }
