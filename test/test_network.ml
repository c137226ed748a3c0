(* Tests for the ids_network substrate: bit accounting, cost ledger, and the
   broadcast/unicast semantics of the execution context. *)

open Ids_network
module Graph = Ids_graph.Graph

let qtest = QCheck_alcotest.to_alcotest

let test_bits_values () =
  Alcotest.(check int) "ceil_log2 1" 0 (Bits.ceil_log2 1);
  Alcotest.(check int) "ceil_log2 2" 1 (Bits.ceil_log2 2);
  Alcotest.(check int) "ceil_log2 3" 2 (Bits.ceil_log2 3);
  Alcotest.(check int) "ceil_log2 1024" 10 (Bits.ceil_log2 1024);
  Alcotest.(check int) "ceil_log2 1025" 11 (Bits.ceil_log2 1025);
  Alcotest.(check int) "id 16" 4 (Bits.id 16);
  Alcotest.(check int) "id 1 at least one bit" 1 (Bits.id 1);
  Alcotest.(check int) "field 7 needs 3 bits" 3 (Bits.field_int 7);
  Alcotest.(check int) "perm 8" 24 (Bits.perm 8)

let test_bits_invalid () =
  Alcotest.check_raises "non-positive" (Invalid_argument "Bits.ceil_log2: non-positive") (fun () ->
      ignore (Bits.ceil_log2 0))

let test_cost_ledger () =
  let c = Cost.create 3 in
  Cost.charge_to_prover c 0 10;
  Cost.charge_from_prover c 0 5;
  Cost.charge_from_prover c 1 100;
  Cost.charge_all_from_prover c 1;
  Alcotest.(check int) "node 0 total" 16 (Cost.node_total c 0);
  Alcotest.(check int) "node 1 total" 101 (Cost.node_total c 1);
  Alcotest.(check int) "node 2 total" 1 (Cost.node_total c 2);
  Alcotest.(check int) "max per node" 101 (Cost.max_per_node c);
  Alcotest.(check int) "max from prover" 101 (Cost.max_from_prover c);
  Alcotest.(check int) "grand total" 118 (Cost.total c)

let test_challenge_charges_and_determinism () =
  let g = Graph.cycle 5 in
  let net1 = Network.create ~seed:7 g in
  let net2 = Network.create ~seed:7 g in
  let c1 = Network.challenge net1 ~bits:12 (fun rng -> Ids_bignum.Rng.bits rng 12) in
  let c2 = Network.challenge net2 ~bits:12 (fun rng -> Ids_bignum.Rng.bits rng 12) in
  Alcotest.(check (array int)) "same seed, same challenges" c1 c2;
  for v = 0 to 4 do
    Alcotest.(check int) "charged to prover" 12 (Cost.to_prover (Network.cost net1) v)
  done;
  let net3 = Network.create ~seed:8 g in
  let c3 = Network.challenge net3 ~bits:12 (fun rng -> Ids_bignum.Rng.bits rng 12) in
  Alcotest.(check bool) "different seed differs" true (c1 <> c3)

let test_challenges_independent_across_nodes () =
  let g = Graph.complete 6 in
  let net = Network.create ~seed:3 g in
  let c = Network.challenge net ~bits:30 (fun rng -> Ids_bignum.Rng.bits rng 30) in
  let distinct = List.sort_uniq Stdlib.compare (Array.to_list c) in
  Alcotest.(check int) "6 nodes, 6 distinct 30-bit draws" 6 (List.length distinct)

(* The broadcast check of one value through the core's primitive. *)
let agrees ?(equal = ( = )) net values v = Network.neighbors_agree net (fun u w -> equal values.(u) values.(w)) v

let test_broadcast_consistency () =
  let g = Graph.path 4 in
  let net = Network.create ~seed:1 g in
  let uniform = Network.broadcast_uniform net ~bits:8 42 in
  for v = 0 to 3 do
    Alcotest.(check bool) "uniform consistent" true (agrees net uniform v)
  done;
  let split = Network.broadcast net ~bits:8 [| 42; 42; 7; 7 |] in
  Alcotest.(check bool) "node 0 sees consistent prefix" true (agrees net split 0);
  Alcotest.(check bool) "node 1 catches mismatch" false (agrees net split 1);
  Alcotest.(check bool) "node 2 catches mismatch" false (agrees net split 2)

let test_nonconstant_broadcast_always_caught_when_connected () =
  (* On a connected graph, any non-constant assignment must fail at some
     node: the distributed check implements a true broadcast. *)
  let rng = Ids_bignum.Rng.create 5 in
  for _ = 1 to 30 do
    let g = Graph.random_connected_gnp rng 10 0.3 in
    let net = Network.create ~seed:1 g in
    let values = Array.init 10 (fun _ -> Ids_bignum.Rng.int rng 3) in
    let constant = Array.for_all (fun x -> x = values.(0)) values in
    let all_pass =
      List.for_all (fun v -> agrees net values v) (List.init 10 Fun.id)
    in
    Alcotest.(check bool) "caught iff non-constant" constant all_pass
  done

(* One check ([neighbors_agree t same] applied once) reused over every
   node, in several orders, answers what a fresh check answers: a
   disagreement at one node does not carry over to the next. *)
let test_neighbors_agree_reused () =
  let rng = Ids_bignum.Rng.create 9 in
  for _ = 1 to 20 do
    let g = Graph.random_gnp rng 12 0.3 in
    let net = Network.create ~fault:(Ids_network.Fault.crash_only 0.2) ~seed:(Ids_bignum.Rng.int rng 1000) g in
    let values = Array.init 12 (fun _ -> Ids_bignum.Rng.int rng 2) in
    let same u w = values.(u) = values.(w) in
    let check = Network.neighbors_agree net same in
    List.iter
      (fun v -> Alcotest.(check bool) (Printf.sprintf "node %d" v) (Network.neighbors_agree net same v) (check v))
      (List.init 12 Fun.id @ List.init 12 (fun i -> 11 - i) @ List.init 12 (fun i -> i * 5 mod 12))
  done

let test_unicast_charges () =
  let g = Graph.star 4 in
  let net = Network.create ~seed:1 g in
  let _ = Network.unicast net ~bits:9 [| 1; 2; 3; 4 |] in
  for v = 0 to 3 do
    Alcotest.(check int) "per-node charge" 9 (Cost.from_prover (Network.cost net) v)
  done

let test_neighbors_agree_custom_equal () =
  (* Values that are structurally distinct but semantically equal must not
     read as an equivocation once [same] uses the payload's own equality.
     Lists standing in for an un-normalized numeric type. *)
  let g = Graph.path 3 in
  let net = Network.create ~seed:1 g in
  let values = [| [ 1 ]; [ 1; 0 ]; [ 1; 0; 0 ] |] in
  let semantically_equal a b = List.fold_left ( + ) 0 a = List.fold_left ( + ) 0 b in
  Alcotest.(check bool) "structural equality sees a split" false
    (agrees net values 1);
  Alcotest.(check bool) "semantic equality does not" true
    (agrees ~equal:semantically_equal net values 1)

let test_neighbors_agree_skips_crashed () =
  (* A crashed neighbour is silent: its copy is never compared, so a split
     that only a crashed node holds is invisible, while a live neighbour
     holding the same split is caught. *)
  let g = Graph.path 5 in
  let fault = Ids_network.Fault.crash_only 0.4 in
  let seed =
    Option.get
      (List.find_opt
         (fun seed ->
           let net = Network.create ~fault ~seed g in
           Network.crashed net 2 && not (Network.crashed net 1 || Network.crashed net 3))
         (List.init 200 Fun.id))
  in
  let net = Network.create ~fault ~seed g in
  let values = [| 42; 42; 7; 42; 42 |] in
  Alcotest.(check bool) "crashed middle node ignored" true (agrees net values 1 && agrees net values 3);
  let live = Network.create ~seed g in
  Alcotest.(check bool) "live middle node caught" false (agrees live values 1)

let test_equivocation_not_caught_across_components () =
  (* Pins the paper's connectivity assumption: broadcast consistency is only
     enforced along edges, so per-component-constant values pass every local
     check on a disconnected graph — a cross-component equivocation is
     invisible. *)
  let g = Graph.disjoint_union (Graph.cycle 3) (Graph.cycle 3) in
  Alcotest.(check bool) "graph really is disconnected" false (Graph.is_connected g);
  let net = Network.create ~seed:1 g in
  let split = Network.broadcast net ~bits:8 [| 42; 42; 42; 7; 7; 7 |] in
  for v = 0 to 5 do
    Alcotest.(check bool) (Printf.sprintf "node %d sees no mismatch" v) true
      (agrees net split v)
  done;
  Alcotest.(check bool) "decide accepts the split" true
    (Network.decide net (fun v -> agrees net split v))

let test_unicast_length_mismatch () =
  let net = Network.create ~seed:1 (Graph.path 3) in
  Alcotest.check_raises "mismatch" (Invalid_argument "Network: response length mismatch") (fun () ->
      ignore (Network.unicast net ~bits:1 [| 1; 2 |]))

let test_decide_all_must_accept () =
  let net = Network.create ~seed:1 (Graph.path 5) in
  Alcotest.(check bool) "all accept" true (Network.decide net (fun _ -> true));
  Alcotest.(check bool) "one rejects" false (Network.decide net (fun v -> v <> 3))

(* The split decide: one [make ()] per range, a rejection in the second
   range rejects at every domain count, and the verdict is decide's. *)
let test_decide_ranges () =
  let g = Graph.cycle 64 in
  let lo, _ = (Ids_engine.Scheduler.ranges ~domains:2 ~n:64).(1) in
  List.iter
    (fun domains ->
      let net = Network.create ~seed:1 g in
      let made = Atomic.make 0 in
      let make reject () =
        Atomic.incr made;
        fun v -> v <> reject
      in
      Alcotest.(check bool) (Printf.sprintf "domains=%d all accept" domains) true
        (Network.decide_ranges net ~domains (make (-1)));
      Alcotest.(check int) (Printf.sprintf "domains=%d one check per range" domains)
        (Array.length (Ids_engine.Scheduler.ranges ~domains ~n:64))
        (Atomic.get made);
      Alcotest.(check bool) (Printf.sprintf "domains=%d rejection at node %d" domains lo) false
        (Network.decide_ranges net ~domains (make lo));
      let faulted = Network.create ~fault:(Fault.crash_only 0.2) ~seed:3 g in
      Alcotest.(check bool) (Printf.sprintf "domains=%d crash rule as decide" domains)
        (Network.decide faulted (fun _ -> true))
        (Network.decide_ranges faulted ~domains (fun () _ -> true)))
    [ 1; 2; 4 ]

let prop_cost_total_is_sum =
  QCheck.Test.make ~name:"cost total = sum of node totals" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (pair (int_bound 4) (int_bound 50)))
    (fun charges ->
      let c = Cost.create 5 in
      List.iter (fun (v, b) -> Cost.charge_to_prover c v b) charges;
      Cost.total c = List.fold_left (fun acc (_, b) -> acc + b) 0 charges)

(* Random charge sequences mixing both directions over an 8-node ledger. *)
let arb_charge_seq =
  QCheck.(list_of_size (Gen.int_bound 40) (triple bool (int_bound 7) (int_bound 1000)))

let apply_charges c charges =
  List.iter
    (fun (to_prover, v, bits) ->
      if to_prover then Cost.charge_to_prover c v bits else Cost.charge_from_prover c v bits)
    charges

let prop_cost_invariants =
  QCheck.Test.make ~name:"cost: charges non-negative, total = sum node_total" ~count:300 arb_charge_seq
    (fun charges ->
      let c = Cost.create 8 in
      apply_charges c charges;
      let sum = ref 0 and nonneg = ref true in
      for v = 0 to 7 do
        sum := !sum + Cost.node_total c v;
        if Cost.node_total c v < 0 || Cost.to_prover c v < 0 || Cost.from_prover c v < 0 then
          nonneg := false
      done;
      !nonneg && Cost.total c = !sum)

let prop_cost_max_per_node_upper_bound =
  QCheck.Test.make ~name:"cost: max_per_node is the least upper bound" ~count:300 arb_charge_seq
    (fun charges ->
      let c = Cost.create 8 in
      apply_charges c charges;
      let m = Cost.max_per_node c in
      let bounds = ref true and attained = ref false in
      for v = 0 to 7 do
        if Cost.node_total c v > m then bounds := false;
        if Cost.node_total c v = m then attained := true;
        if Cost.from_prover c v > Cost.max_from_prover c then bounds := false
      done;
      !bounds && !attained)

let test_cost_negative_charge_raises () =
  Alcotest.check_raises "to_prover" (Invalid_argument "Cost.charge_to_prover: negative bits")
    (fun () -> Cost.charge_to_prover (Cost.create 2) 0 (-1));
  Alcotest.check_raises "from_prover" (Invalid_argument "Cost.charge_from_prover: negative bits")
    (fun () -> Cost.charge_from_prover (Cost.create 2) 1 (-5));
  (* broadcast helpers funnel through the same guarded entry points *)
  Alcotest.check_raises "all_from_prover" (Invalid_argument "Cost.charge_from_prover: negative bits")
    (fun () -> Cost.charge_all_from_prover (Cost.create 2) (-3))

let suite =
  [ ( "bits",
      [ Alcotest.test_case "known values" `Quick test_bits_values;
        Alcotest.test_case "invalid input" `Quick test_bits_invalid
      ] );
    ( "cost",
      [ Alcotest.test_case "ledger arithmetic" `Quick test_cost_ledger;
        Alcotest.test_case "negative charge raises" `Quick test_cost_negative_charge_raises;
        qtest prop_cost_total_is_sum;
        qtest prop_cost_invariants;
        qtest prop_cost_max_per_node_upper_bound
      ] );
    ( "network",
      [ Alcotest.test_case "challenge charges + determinism" `Quick test_challenge_charges_and_determinism;
        Alcotest.test_case "per-node challenge independence" `Quick test_challenges_independent_across_nodes;
        Alcotest.test_case "broadcast consistency check" `Quick test_broadcast_consistency;
        Alcotest.test_case "non-constant broadcast caught" `Quick
          test_nonconstant_broadcast_always_caught_when_connected;
        Alcotest.test_case "neighbors_agree reused across nodes" `Quick test_neighbors_agree_reused;
        Alcotest.test_case "unicast charges" `Quick test_unicast_charges;
        Alcotest.test_case "neighbors_agree custom equal" `Quick test_neighbors_agree_custom_equal;
        Alcotest.test_case "neighbors_agree skips crashed" `Quick test_neighbors_agree_skips_crashed;
        Alcotest.test_case "equivocation invisible across components" `Quick
          test_equivocation_not_caught_across_components;
        Alcotest.test_case "unicast length mismatch" `Quick test_unicast_length_mismatch;
        Alcotest.test_case "decide = conjunction" `Quick test_decide_all_must_accept;
        Alcotest.test_case "decide over node ranges" `Quick test_decide_ranges
      ] )
  ]
