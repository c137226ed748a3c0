(* Tests for the Lemma 3.3 verifier core (Aggregation.verifier) on a
   hand-built network, the mapped row term every Sym protocol hashes
   rho(N[v]) with, and two malformed GS messages the core rejects. *)

open Ids_hash
module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng
module Aggregation = Ids_proof.Aggregation
module Gni = Ids_proof.Gni
module Gs = Ids_proof.Gs

let qtest = QCheck_alcotest.to_alcotest

(* --- the core on a 3x3 grid ------------------------------------------------ *)

let p = 101
let f = Field.int_field p
let k = 2
let g = Graph.grid 3 3
let n = Graph.n g
let tree = Spanning_tree.bfs g 0

(* Node v's own terms: two quantities that differ per node. *)
let own_term v j = ((v + 1) * (j + 3)) mod p

(* An honest message: per-node k-rows of subtree sums, one broadcast value,
   and the tree labels. Tests mutate copies of it. *)
type message = { rows : int array array; bc : int array; root : int array }

let honest () =
  let sums = Array.make (n * k) 0 in
  for v = 0 to n - 1 do
    for j = 0 to k - 1 do
      sums.((v * k) + j) <- own_term v j
    done
  done;
  Aggregation.accumulate f tree ~k sums;
  { rows = Array.init n (fun v -> Array.sub sums (v * k) k);
    bc = Array.make n 7;
    root = Array.make n tree.Spanning_tree.root
  }

(* The total of every own term, which the root compares its claims with. *)
let totals = Array.init k (fun j -> Seq.fold_left (fun acc v -> f.Field.add acc (own_term v j)) 0 (Seq.init n Fun.id))

let verdicts ?(net = Network.create ~seed:1 g) m =
  let claimed v j = if Array.length m.rows.(v) = k then m.rows.(v).(j) else -1 in
  let decide =
    Aggregation.verifier f ~in_field:(Aggregation.in_range p) net ~root:m.root
      ~parent:tree.Spanning_tree.parent ~dist:tree.Spanning_tree.dist ~quantities:k ~claimed
      ~own:(fun v dst -> Array.iteri (fun j _ -> dst.(j) <- own_term v j) dst)
      ~same:(fun u v -> m.bc.(u) = m.bc.(v))
      ~local:(fun _ -> true)
      ~at_root:(fun v -> Array.for_all2 ( = ) m.rows.(v) totals)
  in
  Array.init n decide

let rejecting verdicts =
  List.filter (fun v -> not verdicts.(v)) (List.init (Array.length verdicts) Fun.id)

let check_rejecting what expected m = Alcotest.(check (list int)) what expected (rejecting (verdicts m))

let parent v = tree.Spanning_tree.parent.(v)

(* Node 4 is the grid's centre: an inner tree node whose parent is not the root. *)
let inner = 4

let leaf = List.find (fun v -> v <> 0 && Spanning_tree.children tree v = []) (List.init n Fun.id)

let with_row m v row =
  let rows = Array.copy m.rows in
  rows.(v) <- row;
  { m with rows }

let test_honest_accepts () = check_rejecting "every node accepts" [] (honest ())

let test_bumped_claim () =
  let m = honest () in
  let row = Array.copy m.rows.(inner) in
  row.(1) <- f.Field.add row.(1) 1;
  check_rejecting "the node and its parent reject" (List.sort compare [ inner; parent inner ]) (with_row m inner row)

let test_claim_outside_field () =
  let m = honest () in
  let row = Array.copy m.rows.(inner) in
  row.(0) <- row.(0) + p;
  Alcotest.(check bool) "the node rejects" false (verdicts (with_row m inner row)).(inner)

let test_split_broadcast () =
  let m = honest () in
  let bc = Array.copy m.bc in
  bc.(inner) <- 8;
  let m = { m with bc } in
  let expected = inner :: Bitset.to_list (Graph.neighbors g inner) in
  check_rejecting "the node and its live neighbours reject" (List.sort compare expected) m;
  (* The same split held by a crashed node is never compared. *)
  let fault = Fault.crash_only 0.3 in
  let seed =
    List.find
      (fun seed ->
        let net = Network.create ~fault ~seed g in
        Network.crashed net inner
        && not (List.exists (Network.crashed net) (Bitset.to_list (Graph.neighbors g inner))))
      (List.init 500 Fun.id)
  in
  let net = Network.create ~fault ~seed g in
  let accepted = verdicts ~net m in
  List.iter
    (fun u -> Alcotest.(check bool) (Printf.sprintf "live neighbour %d accepts" u) true accepted.(u))
    (Bitset.to_list (Graph.neighbors g inner))

let test_short_child_row () =
  let m = honest () in
  let m = with_row m leaf (Array.sub m.rows.(leaf) 0 (k - 1)) in
  check_rejecting "the leaf and its parent reject" (List.sort compare [ leaf; parent leaf ]) m

(* --- mapped row terms -------------------------------------------------------- *)

(* The nat field on a one-limb and a multi-limb prime. *)
let nat_fields =
  [ Field.nat_field (Nat.of_int 10007); Field.nat_field (Nat.of_string "170141183460469231731687303715884105727") ]

(* Over a random graph, map and index: the mapped term equals the row hash
   of the explicit image set, and the permuted term when the map is a
   permutation. *)
let mapped_agrees f seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 9 in
  let g = Graph.random_connected_gnp rng n 0.4 in
  let tabs = Linear.row_tables f (f.Field.random rng) ~n in
  let explicit map v =
    let image = Bitset.of_list n (List.map (fun u -> map.(u)) (Bitset.to_list (Graph.closed_neighborhood g v))) in
    Linear.row_hash_tables f tabs ~row:map.(v) image
  in
  (* Few distinct values, so neighbours often share an image. *)
  let any_map = Array.init n (fun _ -> Rng.int rng (min n 3)) in
  let rho = Perm.random rng n in
  let perm = Perm.to_array rho in
  List.for_all
    (fun v ->
      f.Field.equal (Linear.mapped_node_hash_tables f tabs g ~map:any_map v) (explicit any_map v)
      && f.Field.equal (Linear.mapped_node_hash_tables f tabs g ~map:perm v) (explicit perm v)
      && f.Field.equal (Linear.mapped_node_hash_tables f tabs g ~map:perm v)
           (Linear.permuted_node_hash_tables f tabs g rho v))
    (List.init n Fun.id)

let prop_mapped_node_hash =
  QCheck.Test.make ~name:"mapped_node_hash_tables = image-set row hash" ~count:150 QCheck.small_nat (fun seed ->
      mapped_agrees (Field.int_field 10007) seed && List.for_all (fun f -> mapped_agrees f seed) nat_fields)

(* --- malformed GS messages ----------------------------------------------------- *)

(* Seeds at which the honest prover's single repetition accepts, so every
   rejection below is the malformed message's doing. *)
let gs_seeds = [ 2; 3; 7; 9 ]

let gs_instance = lazy (Gni.yes_instance (Rng.create 5) 6)

let gs_run prover seed =
  let inst = Lazy.force gs_instance in
  let params = Gni.params_for ~repetitions:1 ~seed:3 inst in
  (Gs.run_single ~span:"test.gs" ~params ~seed inst.Gni.core prover).Ids_proof.Outcome.accepted

let test_gs_honest_accepts () =
  List.iter
    (fun seed -> Alcotest.(check bool) (Printf.sprintf "seed %d accepted" seed) true (gs_run Gs.honest seed))
    gs_seeds

let test_gs_empty_coeffs () =
  let commit params t ch =
    let c = Gs.honest.Gs.commit params t ch in
    { c with Gs.spec_echo = Array.map (fun s -> { s with Api.coeffs = [||] }) c.Gs.spec_echo }
  in
  let prover = { Gs.honest with Gs.name = "empty-coeffs"; commit } in
  List.iter
    (fun seed -> Alcotest.(check bool) (Printf.sprintf "seed %d rejected" seed) false (gs_run prover seed))
    gs_seeds

let test_gs_short_row () =
  let reveal params t ch (c : Gs.commit) audit =
    let r = Gs.honest_reveal params t ch c audit in
    let n = Array.length c.Gs.parent in
    let is_leaf v = v <> c.Gs.root.(0) && not (Array.exists (( = ) v) c.Gs.parent) in
    let leaf = List.find is_leaf (List.init n Fun.id) in
    let agg = Array.copy r.Gs.agg in
    agg.(leaf) <- Array.sub agg.(leaf) 0 (Array.length agg.(leaf) - 1);
    { r with Gs.agg }
  in
  let prover = { Gs.honest with Gs.name = "short-row"; reveal } in
  List.iter
    (fun seed -> Alcotest.(check bool) (Printf.sprintf "seed %d rejected" seed) false (gs_run prover seed))
    gs_seeds

let suite =
  [ ( "aggregation",
      [ Alcotest.test_case "core: honest accepts" `Quick test_honest_accepts;
        Alcotest.test_case "core: bumped claim" `Quick test_bumped_claim;
        Alcotest.test_case "core: claim outside field" `Quick test_claim_outside_field;
        Alcotest.test_case "core: split broadcast" `Quick test_split_broadcast;
        Alcotest.test_case "core: short child row" `Quick test_short_child_row;
        qtest prop_mapped_node_hash;
        Alcotest.test_case "gs: honest seeds accept" `Quick test_gs_honest_accepts;
        Alcotest.test_case "gs: empty coeffs rejected" `Quick test_gs_empty_coeffs;
        Alcotest.test_case "gs: short row rejected" `Quick test_gs_short_row
      ] )
  ]
