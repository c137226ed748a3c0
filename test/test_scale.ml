(* Scale-path contracts (the million-node PR).

   Three families of checks: (1) every Family/Graph generator builds the
   same graph on the dense and sparse backends; (2) pinned protocol
   estimates (dSym, PLS via the randomized labeling scheme, GNI, the
   eps-API hash) replay bit-identically across backend x worker-domain
   count; (3) the Apihash protocol itself — completeness, deterministic
   rejection of tampered advice, fault behavior, full outcomes pinned
   under single and composite fault specs — plus the committed
   BENCH_scale.json artifact's shape. *)

open Ids_graph
module Rng = Ids_bignum.Rng
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Apihash = Ids_proof.Apihash
module Dsym = Ids_proof.Dsym
module Gni = Ids_proof.Gni
module Pls = Ids_proof.Pls
module Rpls = Ids_proof.Rpls
module Outcome = Ids_proof.Outcome
module Stats = Ids_proof.Stats
module Engine = Ids_engine.Engine

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- backend equivalence of generators ------------------------------------ *)

(* Each generator runs once per backend with a fresh identically-seeded rng:
   the repr hint must change the container only, never the draws or edges. *)
let generators =
  [ ("path", fun repr -> Graph.path ~repr 23);
    ("cycle", fun repr -> Graph.cycle ~repr 23);
    ("star", fun repr -> Graph.star ~repr 17);
    ("complete", fun repr -> Graph.complete ~repr 9);
    ("complete_bipartite", fun repr -> Graph.complete_bipartite ~repr 4 5);
    ("grid", fun repr -> Graph.grid ~repr 4 6);
    ("hypercube", fun repr -> Graph.hypercube ~repr 4);
    ("of_prufer", fun repr -> Graph.of_prufer ~repr [| 3; 3; 0; 1; 4 |]);
    ("random_tree", fun repr -> Graph.random_tree ~repr (Rng.create 3) 40);
    ("random_regular", fun repr -> Graph.random_regular ~repr (Rng.create 4) 12 3);
    ("random_gnp", fun repr -> Graph.random_gnp ~repr (Rng.create 5) 20 0.3);
    ("random_connected_gnp", fun repr -> Graph.random_connected_gnp ~repr (Rng.create 6) 20 0.15);
    ("expander", fun repr -> Family.expander ~repr (Rng.create 8) ~n:50 ~degree:6)
  ]

let test_generators_backend_equal () =
  List.iter
    (fun (name, build) ->
      let gd = build Graph.Dense and gs = build Graph.Sparse in
      checkb (name ^ " repr dense") true (Graph.repr gd = Graph.Dense);
      checkb (name ^ " repr sparse") true (Graph.repr gs = Graph.Sparse);
      checkb (name ^ " dense = sparse") true (Graph.equal gd gs);
      checkb (name ^ " sparse = dense") true (Graph.equal gs gd);
      checki (name ^ " edge count") (Graph.edge_count gd) (Graph.edge_count gs);
      checki (name ^ " max degree") (Graph.max_degree gd) (Graph.max_degree gs))
    generators

let test_with_repr_roundtrip () =
  let g = Family.expander (Rng.create 2) ~n:80 ~degree:4 in
  let there = Graph.with_repr Graph.Dense g in
  let back = Graph.with_repr Graph.Sparse there in
  checkb "sparse -> dense equal" true (Graph.equal g there);
  checkb "dense -> sparse equal" true (Graph.equal g back);
  checkb "mutation after conversion is independent" true
    (let h = Graph.with_repr Graph.Dense g in
     Graph.add_edge h 0 40;
     not (Graph.has_edge g 0 40));
  (* The satellite bugfix at the graph level: comparing graphs of
     different sizes answers false instead of raising from Bitset.equal. *)
  checkb "different n compares unequal" false (Graph.equal (Graph.path 3) (Graph.path 4))

let test_expander_shape () =
  let g = Family.expander (Rng.create 9) ~n:101 ~degree:6 in
  checkb "connected" true (Graph.is_connected g);
  checki "edge count nd/2" (101 * 6 / 2) (Graph.edge_count g);
  for v = 0 to 100 do
    checki "regular" 6 (Graph.degree g v)
  done;
  Alcotest.check_raises "odd degree rejected"
    (Invalid_argument "Family.expander: degree must be even and >= 2") (fun () ->
      ignore (Family.expander (Rng.create 1) ~n:10 ~degree:3))

(* --- pinned estimates: backend x domains ---------------------------------- *)

(* The rpls verdict wrapped as an outcome so the engine can drive it. *)
let rpls_outcome g advice seed =
  let v = Rpls.verify_sym ~seed g advice in
  { Outcome.accepted = v.Rpls.accepted;
    max_bits_per_node = v.Rpls.advice_bits_per_node;
    max_response_bits = v.Rpls.verification_bits_per_edge;
    total_bits = 0;
    prover = "rpls"
  }

(* (name, trials, pinned accepts, dense run, sparse run). The accept counts
   are exact pins: completeness of every run below is deterministic per
   seed, and the sparse backend must not move a single verdict. *)
let estimate_configs () =
  let dsym_graph = Family.dsym_graph (Graph.cycle 6) 2 in
  let dsym_d = Dsym.make_instance ~n:6 ~r:2 dsym_graph in
  let dsym_s = Dsym.make_instance ~n:6 ~r:2 (Graph.with_repr Graph.Sparse dsym_graph) in
  let gni_d = Gni.yes_instance (Rng.create 7) 6 in
  let gni_s =
    Gni.make_instance
      (Graph.with_repr Graph.Sparse gni_d.Gni.g0)
      (Graph.with_repr Graph.Sparse gni_d.Gni.g1)
  in
  let sym = Family.random_symmetric (Rng.create 5) 10 in
  let sym_s = Graph.with_repr Graph.Sparse sym in
  let adv_d = Option.get (Pls.Lcp_sym.honest sym) in
  let adv_s = Option.get (Pls.Lcp_sym.honest sym_s) in
  let exp_d = Family.expander ~repr:Graph.Dense (Rng.create 8) ~n:40 ~degree:4 in
  let exp_s = Family.expander ~repr:Graph.Sparse (Rng.create 8) ~n:40 ~degree:4 in
  [ ( "dsym_yes_n6",
      24,
      24,
      (fun seed -> Dsym.run ~seed dsym_d Dsym.honest),
      fun seed -> Dsym.run ~seed dsym_s Dsym.honest );
    ( "gni_yes6_single",
      12,
      1,
      (fun seed -> Gni.run_single ~seed gni_d Gni.honest),
      fun seed -> Gni.run_single ~seed gni_s Gni.honest );
    ("rpls_sym_n10", 12, 12, rpls_outcome sym adv_d, rpls_outcome sym_s adv_s);
    ( "apihash_expander40",
      10,
      10,
      (fun seed -> Apihash.run ~seed ~root:0 exp_d),
      fun seed -> Apihash.run ~seed ~root:0 exp_s )
  ]

let test_estimates_backend_domains () =
  List.iter
    (fun (name, trials, want_accepts, run_dense, run_sparse) ->
      List.iter
        (fun domains ->
          let ed = Stats.acceptance_ci ~domains ~trials run_dense in
          let es = Stats.acceptance_ci ~domains ~trials run_sparse in
          checki (Printf.sprintf "%s accepts (dense, domains=%d)" name domains) want_accepts
            ed.Engine.accepts;
          checkb (Printf.sprintf "%s estimate bit-identical (domains=%d)" name domains) true (ed = es))
        [ 1; 2; 4 ])
    (estimate_configs ())

(* --- the apihash protocol -------------------------------------------------- *)

let test_apihash_completeness () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let out = Apihash.run ~seed ~root:0 g in
          checkb (Printf.sprintf "%s seed=%d accepts" name seed) true out.Outcome.accepted)
        [ 1; 2; 3 ])
    [ ("petersen", Graph.petersen ());
      ("grid", Graph.grid 5 5);
      ("single", Graph.make 1);
      ("sparse expander", Family.expander (Rng.create 3) ~n:200 ~degree:4)
    ]

let test_apihash_epsilon_small () =
  let g = Graph.petersen () in
  let params = Apihash.params_for ~seed:1 g in
  checkb "eps < 1 at small n" true (Apihash.epsilon params ~n:(Graph.n g) < 1.0)

let test_apihash_soundness () =
  let g = Family.expander (Rng.create 4) ~n:64 ~degree:4 in
  List.iter
    (fun seed ->
      let wrong = Apihash.run ~prover:Apihash.adversary_wrong_claim ~seed ~root:0 g in
      checkb "wrong claim rejected" false wrong.Outcome.accepted;
      List.iter
        (fun node ->
          let bad = Apihash.run ~prover:(Apihash.adversary_corrupt_agg node) ~seed ~root:0 g in
          checkb (Printf.sprintf "corrupt agg at %d rejected" node) false bad.Outcome.accepted)
        [ 0; 17; 63 ])
    [ 1; 2 ]

let test_apihash_faults () =
  let g = Graph.grid 6 6 in
  let all_drop = Apihash.run ~fault:(Fault.drop_only 1.0) ~seed:5 ~root:0 g in
  checkb "total drop rejects" false all_drop.Outcome.accepted;
  let equiv = Apihash.run ~fault:Fault.equivocate_only ~seed:5 ~root:0 g in
  checkb "equivocation caught" false equiv.Outcome.accepted;
  let clean = Apihash.run ~fault:Fault.none ~seed:5 ~root:0 g in
  let bare = Apihash.run ~seed:5 ~root:0 g in
  checkb "zero-rate spec bit-identical" true (clean = bare)

(* Every Apihash pin replays on one domain (a single node range) and split
   over 2 and 4 (both pinned graphs give several ranges). *)
let split_domains = [ 1; 2; 4 ]

(* The full Outcome.t of every (graph, prover/fault, seed) cell, recorded
   before the hash layer moved to power tables: the tabled row terms and
   the in-place k-wide aggregation are exact field arithmetic, so not one
   verdict or bit count may move. The vacuous-crash cells accept, so they
   pin the verifier's subtree equations on a faulted run. The composite
   cells (drop, corrupt, crash and equivocation in one spec) were recorded
   while Apihash still ran its rounds as per-node folds, and pin its move
   onto the array rounds. *)
let apihash_outcome_pins =
  [ ("expander64", "honest", [ (1, true, 396, 249, 25344); (2, true, 396, 249, 25344); (3, true, 396, 249, 25344) ]);
    ("expander64", "wrong_claim", [ (1, false, 396, 249, 25344); (2, false, 396, 249, 25344); (3, false, 396, 249, 25344) ]);
    ("expander64", "corrupt_agg", [ (1, false, 396, 249, 25344); (2, false, 396, 249, 25344); (3, false, 396, 249, 25344) ]);
    ("expander64", "drop0.1", [ (1, false, 396, 249, 25344); (2, false, 396, 249, 25344); (3, false, 396, 249, 25344) ]);
    ("expander64", "equivocate", [ (1, false, 396, 249, 25344); (2, false, 396, 249, 25344); (3, false, 396, 249, 25344) ]);
    ("expander64", "crash_vacuous0.05", [ (1, true, 396, 249, 23760); (2, true, 396, 249, 24156); (3, true, 396, 249, 24552) ]);
    ("expander64", "corrupt0.01", [ (1, false, 396, 249, 25344); (2, false, 396, 249, 25344); (3, false, 396, 249, 25344) ]);
    ("expander64", "composite", [ (1, false, 396, 249, 22176); (2, false, 396, 249, 22968); (3, false, 396, 249, 21780) ]);
    ("grid6x6", "honest", [ (1, true, 342, 216, 12312); (2, true, 360, 227, 12960); (3, true, 360, 227, 12960) ]);
    ("grid6x6", "wrong_claim", [ (1, false, 342, 216, 12312); (2, false, 360, 227, 12960); (3, false, 360, 227, 12960) ]);
    ("grid6x6", "corrupt_agg", [ (1, false, 342, 216, 12312); (2, false, 360, 227, 12960); (3, false, 360, 227, 12960) ]);
    ("grid6x6", "drop0.1", [ (1, false, 342, 216, 12312); (2, false, 360, 227, 12960); (3, false, 360, 227, 12960) ]);
    ("grid6x6", "equivocate", [ (1, false, 342, 216, 12312); (2, false, 360, 227, 12960); (3, false, 360, 227, 12960) ]);
    ("grid6x6", "crash_vacuous0.05", [ (1, true, 342, 216, 11628); (2, true, 360, 227, 12240); (3, true, 360, 227, 12960) ]);
    ("grid6x6", "corrupt0.01", [ (1, false, 342, 216, 12312); (2, false, 360, 227, 12960); (3, false, 360, 227, 12960) ]);
    ("grid6x6", "composite", [ (1, false, 342, 216, 10602); (2, false, 360, 227, 11880); (3, false, 360, 227, 12240) ])
  ]

let test_apihash_outcome_pins () =
  let graphs = [ ("expander64", Family.expander (Rng.create 4) ~n:64 ~degree:4); ("grid6x6", Graph.grid 6 6) ] in
  let cases =
    [ ("honest", None, None);
      ("wrong_claim", Some Apihash.adversary_wrong_claim, None);
      ("corrupt_agg", Some (Apihash.adversary_corrupt_agg 17), None);
      ("drop0.1", None, Some (Fault.drop_only 0.1));
      ("equivocate", None, Some Fault.equivocate_only);
      ("crash_vacuous0.05", None, Some (Fault.crash_only ~crash_mode:Fault.Crash_vacuous 0.05));
      ("corrupt0.01", None, Some (Fault.corrupt_only 0.01));
      ("composite", None, Some (Fault.make ~drop:0.1 ~corrupt:0.1 ~crash:0.1 ~equivocate:true ()))
    ]
  in
  List.iter
    (fun (gname, cname, cells) ->
      let g = List.assoc gname graphs in
      let _, prover, fault = List.find (fun (c, _, _) -> c = cname) cases in
      List.iter
        (fun (seed, accepted, max_bits_per_node, max_response_bits, total_bits) ->
          let want = { Outcome.accepted; max_bits_per_node; max_response_bits; total_bits; prover = "apihash" } in
          List.iter
            (fun domains ->
              let got = Apihash.run ~domains ?fault ?prover ~seed ~root:0 g in
              checkb (Printf.sprintf "%s %s seed=%d domains=%d outcome pinned" gname cname seed domains) true (got = want))
            split_domains)
        cells)
    apihash_outcome_pins

(* Arthur's round keeps only the root's generator and draws the shared
   spec from it; that spec must be the root's entry of the array
   primitive, which draws at every node, on clean and faulted runs and at
   a root other than 0. The Outcome pins above cannot see the spec's
   value: an honest run accepts whatever was drawn. *)
let test_apihash_root_spec () =
  let graphs = [ Family.expander (Rng.create 4) ~n:64 ~degree:4; Graph.grid 6 6 ] in
  List.iter
    (fun g ->
      List.iter
        (fun (seed, root, fault) ->
          let f = (Apihash.params_for ~seed g).Apihash.field and k = Ids_hash.Api.default_copies in
          let want =
            (Network.challenge (Network.create ?fault ~seed g) ~bits:(Ids_hash.Api.spec_bits f ~k)
               (Ids_hash.Api.random_spec f ~k)).(root)
          in
          List.iter
            (fun domains ->
              let drawn = ref None in
              let prover params spec ~root g =
                drawn := Some spec;
                Apihash.honest params spec ~root g
              in
              ignore (Apihash.run ~domains ?fault ~prover ~seed ~root g);
              checkb
                (Printf.sprintf "n=%d seed=%d root=%d domains=%d spec" (Graph.n g) seed root domains)
                true (!drawn = Some want))
            split_domains)
        [ (1, 0, None); (2, 0, None); (3, 5, None); (4, 0, Some (Fault.drop_only 0.1)); (5, 17, Some (Fault.drop_only 0.1)) ])
    graphs

(* A faulted run whose only rejecting node lies in the second node range:
   a drop-fault seed whose dropped messages all went to nodes of that
   range. The fault decisions depend on the seed, the round and the node
   alone, so replaying Apihash's seven channel rounds on a bare Network
   with the same seed finds the nodes that miss a message. Rejected at
   every domain count, with one Outcome.t. *)
let test_apihash_rejects_in_second_range () =
  let g = Family.expander (Rng.create 4) ~n:64 ~degree:4 in
  let n = Graph.n g in
  let fault = Fault.drop_only 0.002 in
  let lo, hi = (Ids_engine.Scheduler.ranges ~domains:2 ~n).(1) in
  let missed_by seed =
    let net = Network.create ~fault ~seed g in
    ignore (Network.challenge net ~bits:1 (fun _ -> ()));
    for _ = 1 to 3 do
      ignore (Network.broadcast_uniform net ~bits:1 0)
    done;
    for _ = 1 to 3 do
      ignore (Network.unicast net ~bits:1 (Array.make n 0))
    done;
    List.filter (Network.missed net) (List.init n Fun.id)
  in
  let rec find seed =
    if seed > 2000 then Alcotest.fail "no seed drops messages to the second range alone"
    else
      match missed_by seed with
      | _ :: _ as missed when List.for_all (fun v -> v >= lo && v < hi) missed -> seed
      | _ -> find (seed + 1)
  in
  let seed = find 1 in
  let reference = Apihash.run ~domains:1 ~fault ~seed ~root:0 g in
  checkb (Printf.sprintf "seed=%d rejected on one domain" seed) false reference.Outcome.accepted;
  checkb "the same seed without faults accepts" true (Apihash.run ~domains:2 ~seed ~root:0 g).Outcome.accepted;
  List.iter
    (fun domains ->
      checkb (Printf.sprintf "seed=%d domains=%d same outcome" seed domains) true
        (Apihash.run ~domains ~fault ~seed ~root:0 g = reference))
    [ 2; 4 ]

let test_apihash_rejects_bad_root () =
  Alcotest.check_raises "root out of range" (Invalid_argument "Apihash.run: root out of range")
    (fun () -> ignore (Apihash.run ~seed:1 ~root:9 (Graph.path 3)))

(* --- committed benchmark artifact ------------------------------------------ *)

let test_bench_scale_shape () =
  let path =
    match List.find_opt Sys.file_exists [ "../BENCH_scale.json"; "BENCH_scale.json" ] with
    | Some p -> p
    | None -> Alcotest.fail "BENCH_scale.json not committed"
  in
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Ids_obs.Json.parse s with
  | Error e -> Alcotest.failf "BENCH_scale.json does not parse: %s" e
  | Ok j ->
    let mem k = Ids_obs.Json.member k j in
    let int_at k =
      match Option.bind (mem k) Ids_obs.Json.to_int with
      | Some v -> v
      | None -> Alcotest.failf "BENCH_scale.json: missing int %S" k
    in
    (* The committed artifact must witness the acceptance criteria: both
       protocols completed end-to-end at n = 10^6 with throughput and
       peak-RSS numbers present. *)
    checki "n is one million" 1_000_000 (int_at "n");
    checkb "full run, not smoke" true (mem "smoke" = Some (Ids_obs.Json.Bool false));
    List.iter
      (fun k -> if mem k = None then Alcotest.failf "BENCH_scale.json: missing %S" k)
      [ "degree"; "repr"; "graph_build_seconds"; "sparse6_bytes"; "pls_tree"; "apihash";
        "apihash_q"; "apihash_copies"; "peak_rss_mb" ];
    List.iter
      (fun proto ->
        let sub k =
          match Option.bind (mem proto) (Ids_obs.Json.member k) with
          | Some v -> v
          | None -> Alcotest.failf "BENCH_scale.json: missing %s.%s" proto k
        in
        checkb (proto ^ " accepted") true (sub "accepted" = Ids_obs.Json.Bool true);
        let num k =
          match Ids_obs.Json.to_float (sub k) with
          | Some r -> r
          | None -> Alcotest.failf "BENCH_scale.json: %s.%s not a number" proto k
        in
        checkb (proto ^ " nodes_per_sec positive") true (num "nodes_per_sec" > 0.);
        (* The timing spread: run count, then best <= median <= max, with
           the headline seconds being the best run. *)
        checkb (proto ^ " runs >= 1") true (num "runs" >= 1.);
        checkb (proto ^ " best <= median <= max") true
          (0. < num "best_seconds"
          && num "best_seconds" <= num "median_seconds"
          && num "median_seconds" <= num "max_seconds");
        checkb (proto ^ " seconds is the best run") true (num "seconds" = num "best_seconds"))
      [ "pls_tree"; "apihash" ];
    (* The committed Apihash figure is a best of at least three. *)
    checkb "apihash best of >= 3" true
      (match Option.bind (Option.bind (mem "apihash") (Ids_obs.Json.member "runs")) Ids_obs.Json.to_int with
       | Some r -> r >= 3
       | None -> false)

let suite =
  [ ( "scale",
      [ Alcotest.test_case "generators equal across backends" `Quick test_generators_backend_equal;
        Alcotest.test_case "with_repr round-trip" `Quick test_with_repr_roundtrip;
        Alcotest.test_case "expander shape" `Quick test_expander_shape;
        Alcotest.test_case "estimates pinned across backend x domains" `Slow
          test_estimates_backend_domains;
        Alcotest.test_case "apihash outcome pin matrix" `Quick test_apihash_outcome_pins;
        Alcotest.test_case "apihash completeness" `Quick test_apihash_completeness;
        Alcotest.test_case "apihash eps < 1 at small n" `Quick test_apihash_epsilon_small;
        Alcotest.test_case "apihash rejects tampered advice" `Quick test_apihash_soundness;
        Alcotest.test_case "apihash under faults" `Quick test_apihash_faults;
        Alcotest.test_case "apihash root validation" `Quick test_apihash_rejects_bad_root;
        Alcotest.test_case "BENCH_scale.json shape" `Quick test_bench_scale_shape;
        Alcotest.test_case "apihash spec = root's draw" `Quick test_apihash_root_spec;
        Alcotest.test_case "apihash rejects in the second node range" `Quick test_apihash_rejects_in_second_range
      ] )
  ]
