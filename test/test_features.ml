(* Tests for the second wave of features: extended-GCD modular inverses,
   graph6 I/O and dot export, Prüfer trees and random regular graphs, vertex
   orbits, the bipartiteness / non-bipartiteness proof labeling schemes, and
   the marked-subgraph GNI variant of Section 2.3. *)

module Nat = Ids_bignum.Nat
module Modarith = Ids_bignum.Modarith
module Rng = Ids_bignum.Rng
open Ids_graph
open Ids_proof


(* Trial budgets honor IDS_TRIALS_SCALE so @runtest-fast can dial them down. *)
let strials n = Ids_engine.Engine.scaled_trials n

let qtest = QCheck_alcotest.to_alcotest

(* --- Modarith.gcd / inv ----------------------------------------------------- *)

let prop_gcd_matches_euclid =
  QCheck.Test.make ~name:"gcd matches int euclid" ~count:300
    QCheck.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let rec euclid a b = if b = 0 then a else euclid b (a mod b) in
      Nat.to_int (Modarith.gcd (Nat.of_int a) (Nat.of_int b)) = euclid a b)

let prop_inv_correct =
  QCheck.Test.make ~name:"inv a * a = 1 mod m when coprime" ~count:300
    QCheck.(pair (int_range 1 100000) (int_range 2 100000))
    (fun (a, m) ->
      match Modarith.inv (Nat.of_int a) (Nat.of_int m) with
      | Some i -> (Nat.to_int i * (a mod m)) mod m = 1 mod m
      | None ->
        let rec euclid a b = if b = 0 then a else euclid b (a mod b) in
        euclid a m <> 1)

let test_inv_known () =
  Alcotest.(check (option int)) "3^-1 mod 7" (Some 5) (Modarith.inv_int 3 7);
  Alcotest.(check (option int)) "2 not invertible mod 4" None (Modarith.inv_int 2 4);
  Alcotest.(check (option int)) "0 not invertible" None (Modarith.inv_int 0 5);
  (* Large: inverse modulo a Mersenne prime, checked by multiplication. *)
  let p = Nat.of_string "2305843009213693951" in
  let a = Nat.of_string "123456789" in
  match Modarith.inv a p with
  | None -> Alcotest.fail "prime modulus: inverse must exist"
  | Some i -> Alcotest.(check bool) "a * a^-1 = 1" true (Nat.is_one (Modarith.mul a i p))

(* --- graph6 ----------------------------------------------------------------- *)

let test_graph6_known () =
  (* K3 and P3 against values produced by nauty's geng. *)
  Alcotest.(check string) "K3" "Bw" (Graph_io.to_graph6 (Graph.complete 3));
  Alcotest.(check string) "empty on 0" "?" (Graph_io.to_graph6 (Graph.make 0));
  Alcotest.(check string) "single vertex" "@" (Graph_io.to_graph6 (Graph.make 1));
  let p3 = Graph_io.of_graph6 "Bg" in
  Alcotest.(check int) "P3 edges" 2 (Graph.edge_count p3)

let prop_graph6_roundtrip =
  QCheck.Test.make ~name:"graph6 roundtrip" ~count:200
    QCheck.(pair (int_range 0 40) (int_bound 1_000_000))
    (fun (n, seed) ->
      let g = Graph.random_gnp (Rng.create seed) n 0.4 in
      Graph.equal g (Graph_io.of_graph6 (Graph_io.to_graph6 g)))

let test_graph6_header_and_whitespace () =
  let g = Graph.petersen () in
  let enc = ">>graph6<<" ^ Graph_io.to_graph6 g ^ "\n" in
  Alcotest.(check bool) "header stripped" true (Graph.equal g (Graph_io.of_graph6 enc))

let test_graph6_big_n () =
  let g = Graph.cycle 100 in
  Alcotest.(check bool) "n=100 roundtrip" true (Graph.equal g (Graph_io.of_graph6 (Graph_io.to_graph6 g)))

let test_graph6_malformed () =
  List.iter
    (fun s ->
      match Graph_io.of_graph6 s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "should reject %S" s)
    [ ""; "B"; "Bwx"; "\x1c" ]

let test_graph6_size_header_forms () =
  (* All three header forms with their boundary values. A full graph6
     payload above the 4-byte limit is ~n²/12 bytes (gigabytes), so the
     8-byte form is pinned on the shared size codec and exercised
     end-to-end through sparse6 below. *)
  List.iter
    (fun (n, want_len) ->
      let h = Graph_io.size_header n in
      Alcotest.(check int) (Printf.sprintf "header length for %d" n) want_len (String.length h);
      Alcotest.(check (pair int int))
        (Printf.sprintf "decode of %d" n)
        (n, want_len) (Graph_io.decode_size_header h))
    [ (0, 1); (62, 1); (63, 4); (258047, 4); (258048, 8); ((1 lsl 36) - 1, 8) ];
  Alcotest.(check string) "long-form prefix" "~~" (String.sub (Graph_io.size_header 258048) 0 2);
  (match Graph_io.size_header (1 lsl 36) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "should reject n = 2^36")

let test_graph6_overlong_header_rejected () =
  (* n = 3 spelled with the 4-byte header; n = 100 spelled with the 8-byte
     one. Same values, non-minimal headers: both must be rejected (each
     legal n has exactly one encoding). *)
  let enc4 n =
    Printf.sprintf "~%c%c%c"
      (Char.chr (((n lsr 12) land 63) + 63))
      (Char.chr (((n lsr 6) land 63) + 63))
      (Char.chr ((n land 63) + 63))
  in
  let enc8 n = "~~" ^ String.init 6 (fun i -> Char.chr (((n lsr (6 * (5 - i))) land 63) + 63)) in
  let body n g =
    let e = Graph_io.to_graph6 g in
    String.sub e n (String.length e - n)
  in
  let overlong4 = enc4 3 ^ body 1 (Graph.complete 3) in
  let overlong8 = enc8 100 ^ body 4 (Graph.cycle 100) in
  List.iter
    (fun (tag, s) ->
      match Graph_io.of_graph6 s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "should reject overlong %s" tag)
    [ ("4-byte", overlong4); ("8-byte", overlong8) ];
  List.iter
    (fun (tag, s) ->
      match Graph_io.decode_size_header s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "should reject %s" tag)
    [ ("overlong 4-byte header", enc4 62); ("overlong 8-byte header", enc8 258047);
      ("truncated 4-byte header", "~B"); ("truncated 8-byte header", "~~??") ]

let test_sparse6_known () =
  (* :Fa@x^ is the 5-cycle plus chords {0,2},{0,4}... use nauty's documented
     example: ":Fa@x^" encodes the graph with edges
     0-1 0-2 1-2 5-6 on 7 vertices. *)
  let g = Graph_io.of_sparse6 ":Fa@x^" in
  Alcotest.(check int) "n" 7 (Graph.n g);
  Alcotest.(check (list (pair int int)))
    "edges"
    [ (0, 1); (0, 2); (1, 2); (5, 6) ]
    (List.sort Stdlib.compare (Graph.edges g))

let prop_sparse6_roundtrip =
  QCheck.Test.make ~name:"sparse6 roundtrip" ~count:200
    QCheck.(pair (int_range 1 40) (int_bound 1_000_000))
    (fun (n, seed) ->
      let g = Graph.random_gnp (Rng.create seed) n 0.2 in
      Graph.equal g (Graph_io.of_sparse6 (Graph_io.to_sparse6 g)))

let test_sparse6_power_of_two_padding () =
  (* n = 2^k sizes hit the shield-bit special case in the padding rule. *)
  List.iter
    (fun n ->
      let gs = [ Graph.path n; Graph.star n ] @ (if n >= 3 then [ Graph.cycle n ] else []) in
      List.iter
        (fun g ->
          Alcotest.(check bool)
            (Printf.sprintf "n=%d roundtrip" n)
            true
            (Graph.equal g (Graph_io.of_sparse6 (Graph_io.to_sparse6 g))))
        gs)
    [ 2; 4; 8; 16; 32 ]

let test_sparse6_long_form () =
  let n = 258048 in
  let g = Graph.cycle ~repr:Graph.Sparse n in
  let enc = Graph_io.to_sparse6 g in
  Alcotest.(check string) "long-form prefix" ":~~" (String.sub enc 0 3);
  Alcotest.(check bool) "roundtrip" true (Graph.equal g (Graph_io.of_sparse6 enc));
  (* Linear, not quadratic: a million-edge cycle fits in a few MB. *)
  Alcotest.(check bool) "linear size" true (String.length enc < 4 * n)

let test_sparse6_header_and_whitespace () =
  let g = Graph.petersen () in
  let enc = ">>sparse6<<" ^ Graph_io.to_sparse6 g ^ "\n" in
  Alcotest.(check bool) "header stripped" true (Graph.equal g (Graph_io.of_sparse6 enc))

let test_sparse6_malformed () =
  List.iter
    (fun (tag, s) ->
      match Graph_io.of_sparse6 s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "should reject %s: %S" tag s)
    [ ("empty", "");
      ("missing colon", "Fa@x^");
      ("truncated 4-byte size", ":~B");
      ("truncated 8-byte size", ":~~???");
      ("overlong 4-byte size", ":~??B");
      ("overlong 8-byte size", ":~~?????B");
      ("bad payload byte", ":F\x1c");
      ("self-loop", ":BF")
    ]

let test_huge_header_short_payload () =
  (* An 8-byte header claims up to 2^36 - 1 nodes in 8 bytes. Both decoders
     must reject a short payload before sizing any allocation by n: graph6
     by its exact payload length (n(n-1)/2 overflows for the largest n),
     sparse6 by its node cap. *)
  let enc8 n = "~~" ^ String.init 6 (fun i -> Char.chr (((n lsr (6 * (5 - i))) land 63) + 63)) in
  let rejected tag decode s =
    let before = Gc.allocated_bytes () in
    (match decode s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "should reject %s" tag);
    let used = Gc.allocated_bytes () -. before in
    Alcotest.(check bool) (Printf.sprintf "%s allocates %.0f bytes" tag used) true (used < 1e6)
  in
  List.iter
    (fun n ->
      rejected (Printf.sprintf "graph6 n=%d" n) Graph_io.of_graph6 (enc8 n ^ "??");
      rejected (Printf.sprintf "sparse6 n=%d" n) Graph_io.of_sparse6 (":" ^ enc8 n ^ "??"))
    [ (1 lsl 36) - 1; 1 lsl 33; 1 lsl 31; Graph_io.sparse6_max_nodes + 1 ];
  rejected "graph6 n=2^20" Graph_io.of_graph6 (Graph_io.size_header (1 lsl 20) ^ "??")

let test_dot_output () =
  let dot = Graph_io.to_dot ~name:"triangle" (Graph.complete 3) in
  Alcotest.(check bool) "has header" true (String.length dot > 0 && String.sub dot 0 14 = "graph triangle");
  Alcotest.(check bool) "has an edge" true
    (String.fold_left (fun acc c -> acc || c = '-') false dot)

(* --- trees and regular graphs ------------------------------------------------- *)

let prop_prufer_gives_tree =
  QCheck.Test.make ~name:"Prüfer decodes to a tree" ~count:200
    QCheck.(pair (int_range 3 30) (int_bound 1_000_000))
    (fun (n, seed) ->
      let g = Graph.random_tree (Rng.create seed) n in
      Graph.n g = n && Graph.edge_count g = n - 1 && Graph.is_connected g)

let test_prufer_known () =
  (* The sequence [3;3;3;4] on 6 vertices: a standard textbook example. *)
  let g = Graph.of_prufer [| 3; 3; 3; 4 |] in
  Alcotest.(check (list (pair int int))) "edges" [ (0, 3); (1, 3); (2, 3); (3, 4); (4, 5) ] (Graph.edges g)

let test_prufer_uniformity () =
  (* Cayley's formula at n = 4: 16 labelled trees; with 3200 samples every
     tree should appear roughly 200 times. *)
  let rng = Rng.create 77 in
  let counts = Hashtbl.create 16 in
  for _ = 1 to 3200 do
    let key = Graph.encode (Graph.random_tree rng 4) in
    Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
  done;
  Alcotest.(check int) "16 labelled trees" 16 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c -> Alcotest.(check bool) (Printf.sprintf "count %d near 200" c) true (abs (c - 200) < 80))
    counts

let prop_random_regular =
  QCheck.Test.make ~name:"random regular is d-regular" ~count:60
    QCheck.(pair (int_range 1 4) (int_bound 1_000_000))
    (fun (d, seed) ->
      let n = 12 in
      let g = Graph.random_regular (Rng.create seed) n d in
      List.for_all (fun v -> Graph.degree g v = d) (List.init n Fun.id))

let test_random_regular_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "odd product" (Invalid_argument "Graph.random_regular: n * d must be even")
    (fun () -> ignore (Graph.random_regular rng 5 3));
  Alcotest.check_raises "d >= n" (Invalid_argument "Graph.random_regular: need 0 <= d < n") (fun () ->
      ignore (Graph.random_regular rng 4 4))

(* --- orbits -------------------------------------------------------------------- *)

let test_orbits_classics () =
  Alcotest.(check (list (list int))) "K4: one orbit" [ [ 0; 1; 2; 3 ] ] (Iso.orbits (Graph.complete 4));
  Alcotest.(check (list (list int))) "star: center + leaves" [ [ 0 ]; [ 1; 2; 3; 4 ] ]
    (Iso.orbits (Graph.star 5));
  Alcotest.(check (list (list int))) "P4: two mirror orbits" [ [ 0; 3 ]; [ 1; 2 ] ]
    (Iso.orbits (Graph.path 4));
  Alcotest.(check int) "petersen is vertex-transitive" 1 (List.length (Iso.orbits (Graph.petersen ())))

let test_orbits_asymmetric_all_singletons () =
  let rng = Rng.create 5 in
  let g = Family.random_asymmetric rng 8 in
  Alcotest.(check int) "8 singleton orbits" 8 (List.length (Iso.orbits g))

let prop_orbit_partition =
  QCheck.Test.make ~name:"orbits partition the vertex set" ~count:50 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let g = Graph.random_gnp (Rng.create seed) 8 0.4 in
      let all = List.concat (Iso.orbits g) in
      List.sort_uniq Stdlib.compare all = List.init 8 Fun.id)

(* --- bipartiteness PLS ----------------------------------------------------------- *)

let test_bipartite_pls () =
  let bip = Graph.complete_bipartite 4 5 in
  (match Pls.Lcp_bipartite.honest bip with
  | None -> Alcotest.fail "bipartite graph must have a 2-coloring"
  | Some adv ->
    let v = Pls.Lcp_bipartite.verify bip adv in
    Alcotest.(check bool) "accepted" true v.Pls.accepted;
    Alcotest.(check int) "one bit per node" 1 v.Pls.advice_bits_per_node);
  (* Odd cycles have no proof. *)
  Alcotest.(check bool) "C5 has no coloring" true (Pls.Lcp_bipartite.honest (Graph.cycle 5) = None);
  (* Forged colorings are caught. *)
  let even = Graph.cycle 6 in
  let bad = Array.make 6 true in
  Alcotest.(check bool) "constant coloring rejected" false (Pls.Lcp_bipartite.verify even bad).Pls.accepted

let test_bipartite_pls_on_trees () =
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    let g = Graph.random_tree rng 20 in
    match Pls.Lcp_bipartite.honest g with
    | None -> Alcotest.fail "trees are bipartite"
    | Some adv -> Alcotest.(check bool) "verified" true (Pls.Lcp_bipartite.verify g adv).Pls.accepted
  done

let test_odd_cycle_pls () =
  let odd = Graph.cycle 7 in
  (match Pls.Lcp_odd_cycle.honest odd with
  | None -> Alcotest.fail "C7 is not bipartite"
  | Some adv ->
    let v = Pls.Lcp_odd_cycle.verify odd adv in
    Alcotest.(check bool) "accepted" true v.Pls.accepted;
    Alcotest.(check bool) "Theta(log n) advice" true (v.Pls.advice_bits_per_node <= 5 * 3 + 10));
  (* Bipartite graphs have no witness. *)
  Alcotest.(check bool) "C8 has no witness" true (Pls.Lcp_odd_cycle.honest (Graph.cycle 8) = None);
  (* A forged witness (equal-parity claim on a bipartite graph) is caught. *)
  let even = Graph.cycle 8 in
  let tree = Pls.Tree.honest even 0 in
  let forged = { Pls.Lcp_odd_cycle.tree; witness = (0, 1) } in
  Alcotest.(check bool) "forged witness rejected" false (Pls.Lcp_odd_cycle.verify even forged).Pls.accepted

let test_odd_cycle_pls_random () =
  let rng = Rng.create 10 in
  for _ = 1 to 20 do
    let g = Graph.random_connected_gnp rng 15 0.25 in
    match Pls.Lcp_odd_cycle.honest g with
    | Some adv ->
      Alcotest.(check bool) "witness verifies" true (Pls.Lcp_odd_cycle.verify g adv).Pls.accepted;
      Alcotest.(check bool) "graph really non-bipartite" true (Pls.Lcp_bipartite.honest g = None)
    | None -> Alcotest.(check bool) "graph really bipartite" true (Pls.Lcp_bipartite.honest g <> None)
  done

(* --- Gni_induced (Section 2.3 variant) -------------------------------------------- *)

let test_gni_induced_planting () =
  let rng = Rng.create 20 in
  let inst = Gni_induced.yes_instance rng 10 in
  Alcotest.(check int) "class size" 4 inst.Gni_induced.k;
  Alcotest.(check bool) "induced h0 is P4" true (Iso.are_isomorphic inst.Gni_induced.h0 (Graph.path 4));
  Alcotest.(check bool) "induced h1 is K13" true (Iso.are_isomorphic inst.Gni_induced.h1 (Graph.star 4));
  Alcotest.(check bool) "network connected" true (Graph.is_connected inst.Gni_induced.g)

let test_gni_induced_set_sizes () =
  (* |S| = 2 P(n,k) vs P(n,k): the compensation works for the symmetric
     4-vertex sides. *)
  let rng = Rng.create 21 in
  let yes = Gni_induced.yes_instance rng 10 and no = Gni_induced.no_instance rng 10 in
  let p_10_4 = 10 * 9 * 8 * 7 in
  Alcotest.(check int) "YES candidates" (2 * p_10_4) (Array.length (Gs.candidates yes.Gni_induced.core));
  Alcotest.(check int) "NO candidates" p_10_4 (Array.length (Gs.candidates no.Gni_induced.core))

let test_gni_induced_gap_and_verdicts () =
  let rng = Rng.create 22 in
  let yes = Gni_induced.yes_instance rng 10 and no = Gni_induced.no_instance rng 10 in
  let params = Gni_induced.params_for ~seed:2 yes in
  let rate inst =
    (Stats.acceptance ~trials:(strials 150) (fun seed -> Gni_induced.run_single ~params ~seed inst Gni_induced.honest))
      .Stats.rate
  in
  let yes_rate = rate yes and no_rate = rate no in
  Alcotest.(check bool)
    (Printf.sprintf "yes %.3f > no %.3f" yes_rate no_rate)
    true
    (yes_rate > no_rate +. 0.03);
  let p200 = Gni_induced.params_for ~repetitions:250 ~seed:2 yes in
  Alcotest.(check bool) "YES accepted" true
    (Gni_induced.run ~params:p200 ~seed:5 yes Gni_induced.honest).Outcome.accepted;
  Alcotest.(check bool) "NO rejected" false
    (Gni_induced.run ~params:p200 ~seed:6 no Gni_induced.honest).Outcome.accepted

let test_gni_induced_validation () =
  let rng = Rng.create 23 in
  let g = Graph.random_connected_gnp rng 8 0.5 in
  (match Gni_induced.make_instance g (Array.make 8 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad marks rejected");
  let marks = Array.make 8 (-1) in
  marks.(0) <- 0;
  marks.(1) <- 0;
  marks.(2) <- 1;
  match Gni_induced.make_instance g marks with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unequal classes rejected"

let suite =
  [ ( "modarith:egcd",
      [ Alcotest.test_case "known inverses" `Quick test_inv_known;
        qtest prop_gcd_matches_euclid;
        qtest prop_inv_correct
      ] );
    ( "graph_io",
      [ Alcotest.test_case "graph6 known encodings" `Quick test_graph6_known;
        Alcotest.test_case "graph6 header/whitespace" `Quick test_graph6_header_and_whitespace;
        Alcotest.test_case "graph6 n=100" `Quick test_graph6_big_n;
        Alcotest.test_case "graph6 malformed" `Quick test_graph6_malformed;
        Alcotest.test_case "size header forms" `Quick test_graph6_size_header_forms;
        Alcotest.test_case "overlong headers rejected" `Quick test_graph6_overlong_header_rejected;
        Alcotest.test_case "sparse6 known encoding" `Quick test_sparse6_known;
        Alcotest.test_case "sparse6 power-of-two padding" `Quick test_sparse6_power_of_two_padding;
        Alcotest.test_case "sparse6 long form" `Quick test_sparse6_long_form;
        Alcotest.test_case "sparse6 header/whitespace" `Quick test_sparse6_header_and_whitespace;
        Alcotest.test_case "sparse6 malformed" `Quick test_sparse6_malformed;
        Alcotest.test_case "huge size header, short payload" `Quick test_huge_header_short_payload;
        Alcotest.test_case "dot output" `Quick test_dot_output;
        qtest prop_graph6_roundtrip;
        qtest prop_sparse6_roundtrip
      ] );
    ( "trees+regular",
      [ Alcotest.test_case "Prüfer known sequence" `Quick test_prufer_known;
        Alcotest.test_case "Prüfer uniformity (Cayley n=4)" `Quick test_prufer_uniformity;
        Alcotest.test_case "regular validation" `Quick test_random_regular_validation;
        qtest prop_prufer_gives_tree;
        qtest prop_random_regular
      ] );
    ( "orbits",
      [ Alcotest.test_case "classic orbit structures" `Quick test_orbits_classics;
        Alcotest.test_case "asymmetric = singletons" `Quick test_orbits_asymmetric_all_singletons;
        qtest prop_orbit_partition
      ] );
    ( "bipartite_pls",
      [ Alcotest.test_case "bipartiteness scheme" `Quick test_bipartite_pls;
        Alcotest.test_case "trees are certified" `Quick test_bipartite_pls_on_trees;
        Alcotest.test_case "odd-cycle scheme" `Quick test_odd_cycle_pls;
        Alcotest.test_case "random graphs: exactly one side certifiable" `Quick test_odd_cycle_pls_random
      ] );
    ( "gni_induced",
      [ Alcotest.test_case "planting" `Quick test_gni_induced_planting;
        Alcotest.test_case "|S| = 2 P(n,k) vs P(n,k)" `Slow test_gni_induced_set_sizes;
        Alcotest.test_case "gap and verdicts" `Slow test_gni_induced_gap_and_verdicts;
        Alcotest.test_case "validation" `Quick test_gni_induced_validation
      ] )
  ]
