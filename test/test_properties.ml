(* Deep property-based hardening across the substrates: algebraic laws of
   the fields and hashes, structural invariants of the graph operations, and
   distributional facts the protocols lean on. *)

module Nat = Ids_bignum.Nat
module Modarith = Ids_bignum.Modarith
module Prime = Ids_bignum.Prime
module Rng = Ids_bignum.Rng
open Ids_graph
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Api = Ids_hash.Api
module Aggregation = Ids_proof.Aggregation

let qtest = QCheck_alcotest.to_alcotest

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000)

(* --- Nat laws on large values -------------------------------------------------- *)

let big_of_seed seed =
  let rng = Rng.create seed in
  let limbs = 1 + Rng.int rng 6 in
  let rec build acc i = if i = 0 then acc else build (Nat.add (Nat.shift_left acc 26) (Nat.of_int (Rng.bits rng 26))) (i - 1) in
  build Nat.zero limbs

let prop_nat_add_commutative_assoc =
  QCheck.Test.make ~name:"Nat: + commutative and associative (big)" ~count:200
    (QCheck.triple arb_seed arb_seed arb_seed)
    (fun (x, y, z) ->
      let a = big_of_seed x and b = big_of_seed y and c = big_of_seed z in
      Nat.equal (Nat.add a b) (Nat.add b a)
      && Nat.equal (Nat.add a (Nat.add b c)) (Nat.add (Nat.add a b) c))

let prop_nat_sub_add_roundtrip =
  QCheck.Test.make ~name:"Nat: (a + b) - b = a (big)" ~count:200 (QCheck.pair arb_seed arb_seed)
    (fun (x, y) ->
      let a = big_of_seed x and b = big_of_seed y in
      Nat.equal (Nat.sub (Nat.add a b) b) a)

let prop_nat_pow_splits =
  QCheck.Test.make ~name:"Nat: a^(i+j) = a^i * a^j" ~count:100
    (QCheck.triple arb_seed (QCheck.int_bound 12) (QCheck.int_bound 12))
    (fun (x, i, j) ->
      let a = Nat.rem (big_of_seed x) (Nat.of_int 100000) in
      Nat.equal (Nat.pow a (i + j)) (Nat.mul (Nat.pow a i) (Nat.pow a j)))

let prop_nat_compare_antisymmetric =
  QCheck.Test.make ~name:"Nat: compare antisymmetric and total" ~count:200 (QCheck.pair arb_seed arb_seed)
    (fun (x, y) ->
      let a = big_of_seed x and b = big_of_seed y in
      Nat.compare a b = -Nat.compare b a && (Nat.compare a b <> 0 || Nat.equal a b))

let prop_nat_random_in_bounds =
  QCheck.Test.make ~name:"Nat: random_in stays in [lo, hi]" ~count:200 (QCheck.pair arb_seed arb_seed)
    (fun (x, y) ->
      let a = big_of_seed x and b = big_of_seed y in
      let lo = if Nat.compare a b <= 0 then a else b and hi = if Nat.compare a b <= 0 then b else a in
      let r = Nat.random_in (Rng.create (x lxor y)) lo hi in
      Nat.compare lo r <= 0 && Nat.compare r hi <= 0)

(* The documented draw, written out with Nat arithmetic: 26-bit chunks
   (a short top one) low bits first, rejected until below the bound. *)
let chunk_stream_draw rng bound =
  let k = Nat.bit_length bound in
  let chunks = (k + 25) / 26 in
  let rec draw () =
    let r = ref Nat.zero in
    for i = 0 to chunks - 1 do
      let w = if i = chunks - 1 then k - (26 * (chunks - 1)) else 26 in
      r := Nat.add !r (Nat.shift_left (Nat.of_int (Rng.bits rng w)) (26 * i))
    done;
    if Nat.compare !r bound < 0 then !r else draw ()
  in
  draw ()

(* Both draws against that stream: the native one on bounds of every width
   in [1, 62], with the 26- and 52-bit chunk edges and the ends of the range
   drawn often, and random_below on those (its one-limb path) and on
   multi-limb bounds. Each must give the same value and leave the generator
   at the same position (the next raw output agrees). *)
let prop_nat_random_below_int =
  let edges =
    [ 1; 2; 3; (1 lsl 26) - 1; 1 lsl 26; (1 lsl 26) + 1; (1 lsl 52) - 1; 1 lsl 52; (1 lsl 52) + 1;
      (1 lsl 61) + 1; max_int ]
  in
  QCheck.Test.make ~name:"Nat: random_below_int = random_below" ~count:500 (QCheck.pair arb_seed arb_seed)
    (fun (x, y) ->
      let pick = Rng.create x in
      let bound =
        if Rng.int pick 3 = 0 then List.nth edges (Rng.int pick (List.length edges))
        else
          let w = 1 + Rng.int pick 62 in
          (1 lsl (w - 1)) lor Rng.bits pick (w - 1)
      in
      let wide = Nat.add (Nat.shift_left (Nat.of_int (1 + Rng.bits pick 40)) 62) (Nat.of_int bound) in
      let same draw bound =
        let r1 = Rng.create y and r2 = Rng.create y in
        let v = draw r1 in
        Nat.equal v (chunk_stream_draw r2 bound) && Rng.next_int64 r1 = Rng.next_int64 r2
      in
      same (fun r -> Nat.of_int (Nat.random_below_int r bound)) (Nat.of_int bound)
      && same (fun r -> Nat.random_below r (Nat.of_int bound)) (Nat.of_int bound)
      && same (fun r -> Nat.random_below r wide) wide)

(* --- field laws ------------------------------------------------------------------ *)

let f97 = Field.int_field 97

let arb_f97 = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 96)

let prop_field_ring_laws =
  QCheck.Test.make ~name:"Field: ring laws mod 97" ~count:300 (QCheck.triple arb_f97 arb_f97 arb_f97)
    (fun (a, b, c) ->
      f97.Field.mul a (f97.Field.add b c) = f97.Field.add (f97.Field.mul a b) (f97.Field.mul a c)
      && f97.Field.mul a b = f97.Field.mul b a
      && f97.Field.add (f97.Field.sub a b) b = a)

let prop_field_fermat_inverse =
  QCheck.Test.make ~name:"Field: a * a^(p-2) = 1 for a <> 0" ~count:96 arb_f97 (fun a ->
      QCheck.assume (a <> 0);
      f97.Field.mul a (f97.Field.pow_int a 95) = 1)

let prop_field_pow_hom =
  QCheck.Test.make ~name:"Field: (ab)^k = a^k b^k" ~count:200
    (QCheck.triple arb_f97 arb_f97 (QCheck.int_bound 50))
    (fun (a, b, k) ->
      f97.Field.pow_int (f97.Field.mul a b) k = f97.Field.mul (f97.Field.pow_int a k) (f97.Field.pow_int b k))

(* Both carriers agree on the same prime. *)
let prop_field_carriers_agree =
  QCheck.Test.make ~name:"Field: int and nat carriers agree mod 10007" ~count:200
    (QCheck.pair (QCheck.int_bound 10006) (QCheck.int_bound 10006))
    (fun (a, b) ->
      let fi = Field.int_field 10007 and fn = Field.nat_field (Nat.of_int 10007) in
      Nat.to_int (fn.Field.mul (Nat.of_int a) (Nat.of_int b)) = fi.Field.mul a b
      && Nat.to_int (fn.Field.pow_int (Nat.of_int a) 17) = fi.Field.pow_int a 17)

(* One-limb nat_field moduli (2^31 - 1, 2^61 - 1 and 2^62 - 57, the top
   of the native range where an intermediate can overflow) against the
   naive Modarith functions on reduced operands. Operands are drawn
   reduced, one-limb but unreduced, or multi-limb, with 0 and p - 1 often;
   results must be the same canonical Nat. [random] must draw what
   Nat.random_below draws and leave the generator at the same position. *)
let one_limb_primes = [ 2147483647; 2305843009213693951; 4611686018427387847 ]

let prop_nat_field_one_limb =
  QCheck.Test.make ~name:"Field: one-limb nat_field = naive Modarith" ~count:500 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let k = List.nth one_limb_primes (Rng.int rng 3) in
      let p = Nat.of_int k in
      let f = Field.nat_field p in
      let operand () =
        match Rng.int rng 6 with
        | 0 -> Nat.zero
        | 1 -> Nat.of_int (k - 1)
        | 2 -> Nat.of_int (k + Rng.int rng (max_int - k + 1))
        | 3 -> Nat.add (Nat.shift_left (big_of_seed (Rng.bits rng 30)) 62) (Nat.of_int (Rng.bits rng 62))
        | _ -> Nat.of_int (Rng.int rng k)
      in
      let a = operand () and b = operand () and e = Rng.int rng 200 in
      let ra = Nat.rem a p and rb = Nat.rem b p in
      let r1 = Rng.create seed and r2 = Rng.create seed in
      Nat.equal (f.Field.add a b) (Modarith.add ra rb p)
      && Nat.equal (f.Field.sub a b) (Modarith.sub ra rb p)
      && Nat.equal (f.Field.mul a b) (Modarith.mul ra rb p)
      && Nat.equal (f.Field.pow_int a e) (Modarith.pow_int ra e p)
      && Nat.equal (f.Field.random r1) (Nat.random_below r2 p)
      && Rng.next_int64 r1 = Rng.next_int64 r2)

(* --- hash laws -------------------------------------------------------------------- *)

let prop_hash_identity_perm =
  QCheck.Test.make ~name:"Linear: permuted hash under identity = graph hash" ~count:100 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let g = Graph.random_gnp rng 8 0.5 in
      let a = f97.Field.random rng in
      let f = Field.int_field 10007 in
      let a = a mod 10007 in
      Linear.permuted_graph_hash f a g (Perm.identity 8) = Linear.graph_hash f a g)

let prop_hash_duplicate_rows_double =
  QCheck.Test.make ~name:"Linear: duplicated row hashes to twice the row" ~count:100 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let f = Field.int_field 10007 in
      let a = f.Field.random rng in
      let s = Bitset.of_list 8 [ 1; 3; 7 ] in
      let twice = Linear.matrix_hash f a ~n:8 [ (2, s); (2, s) ] in
      twice = f.Field.add (Linear.row_hash f a ~n:8 ~row:2 s) (Linear.row_hash f a ~n:8 ~row:2 s))

let prop_hash_row_shift =
  QCheck.Test.make ~name:"Linear: row shift multiplies by a^n" ~count:100 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let f = Field.int_field 10007 in
      let a = f.Field.random rng in
      let s = Bitset.of_list 6 [ 0; 2; 5 ] in
      Linear.row_hash f a ~n:6 ~row:3 s = f.Field.mul (f.Field.pow_int a 6) (Linear.row_hash f a ~n:6 ~row:2 s))

(* The tabled node term against the closed form, in one field: random
   size, spec and copy count; the first, last or an interior row; a graph
   with no edges (each row's content is the vertex alone), a complete one
   (full rows) or a random one, dense or sparse; sometimes a point is 0 or
   1. Written at an offset so the slot arithmetic is checked too. *)
let tabled_term_matches (type a) (f : a Field.t) seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 12 and k = 1 + Rng.int rng 4 in
  let spec = Api.random_spec f ~k rng in
  (match Rng.int rng 4 with
   | 0 -> spec.Api.points.(0) <- f.Field.zero
   | 1 -> spec.Api.points.(0) <- f.Field.one
   | _ -> ());
  let row = match Rng.int rng 3 with 0 -> 0 | 1 -> n - 1 | _ -> Rng.int rng n in
  let repr = if Rng.bool rng then Graph.Sparse else Graph.Dense in
  let density = match Rng.int rng 3 with 0 -> 0. | 1 -> 1. | _ -> Rng.float rng in
  let g = Graph.random_gnp ~repr rng n density in
  let want = Api.row_term f spec ~n ~row (Graph.closed_neighborhood g row) in
  let got = Array.make (k + 2) f.Field.one in
  Api.node_term_into f (Api.tables f spec ~n) g row got 1;
  f.Field.equal got.(0) f.Field.one
  && f.Field.equal got.(k + 1) f.Field.one
  && Array.for_all2 f.Field.equal want (Array.sub got 1 k)

let prop_tabled_term_int =
  QCheck.Test.make ~name:"Api: tabled node term = row_term (int field)" ~count:200 arb_seed
    (tabled_term_matches (Field.int_field 2147483647))

(* Near the largest modulus the scale path uses (2^62 - 57, the Apihash cap). *)
let prop_tabled_term_int62 =
  QCheck.Test.make ~name:"Api: tabled node term = row_term (int62 field)" ~count:200 arb_seed
    (tabled_term_matches (Field.int62_field 4611686018427387847))

let prop_tabled_term_nat =
  QCheck.Test.make ~name:"Api: tabled node term = row_term (nat field)" ~count:100 arb_seed
    (tabled_term_matches (Field.nat_field (Nat.of_string "170141183460469231731687303715884105727")))

(* One writer ([Api.node_term_into f] applied once) reused over every
   node and over two table sets, one built in the caller and one built in
   segments on two domains, writes each node's row_term: the writer's
   cells carry nothing from one node to the next, and the segmented chains
   equal the whole ones. *)
let reused_writer_matches (type a) (f : a Field.t) seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 80 and k = 1 + Rng.int rng 4 in
  let spec = Api.random_spec f ~k rng and other = Api.random_spec f ~k rng in
  let repr = if Rng.bool rng then Graph.Sparse else Graph.Dense in
  let g = Graph.random_gnp ~repr rng n (Rng.float rng) in
  let sets = [ (spec, Api.tables f spec ~n); (other, Api.tables ~domains:2 f other ~n) ] in
  let term = Api.node_term_into f in
  let got = Array.make k f.Field.zero in
  List.for_all
    (fun v ->
      List.for_all
        (fun (s, t) ->
          term t g v got 0;
          Array.for_all2 f.Field.equal (Api.row_term f s ~n ~row:v (Graph.closed_neighborhood g v)) got)
        sets)
    (List.init n Fun.id)

let prop_reused_writer =
  QCheck.Test.make ~name:"Api: one node-term writer over all nodes and two table sets = row_term" ~count:60
    arb_seed
    (reused_writer_matches (Field.int62_field 4611686018427387847))

(* Every tabled form against its closed form, in one field: a random size
   and graph, a random permutation, every row, and an index that is
   sometimes 0 or 1. The memo must hand back the tables it built. *)
let tabled_hashes_match (type a) (f : a Field.t) seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 12 in
  let a = match Rng.int rng 4 with 0 -> f.Field.zero | 1 -> f.Field.one | _ -> f.Field.random rng in
  let repr = if Rng.bool rng then Graph.Sparse else Graph.Dense in
  let g = Graph.random_gnp ~repr rng n (Rng.float rng) in
  let rho = Perm.random rng n in
  let memo = Linear.row_tables_memo f ~n in
  let tabs = memo a in
  let rows_ok =
    List.for_all
      (fun v ->
        let s = Graph.closed_neighborhood g v in
        let want = Linear.row_hash f a ~n ~row:v s in
        f.Field.equal want (Linear.row_hash_tables f tabs ~row:v s)
        && f.Field.equal want (Linear.node_hash_tables f tabs g v)
        && f.Field.equal
             (Linear.row_hash f a ~n ~row:(Perm.apply rho v) (Perm.apply_set rho s))
             (Linear.permuted_node_hash_tables f tabs g rho v))
      (List.init n Fun.id)
  in
  rows_ok
  && memo a == tabs
  && f.Field.equal (Linear.graph_hash f a g) (Linear.graph_hash_tables f tabs g)
  && f.Field.equal (Linear.permuted_graph_hash f a g rho) (Linear.permuted_graph_hash_tables f tabs g rho)

let prop_tabled_hash_int =
  QCheck.Test.make ~name:"Linear: tabled hashes = closed forms (int field)" ~count:200 arb_seed
    (tabled_hashes_match (Field.int_field 2147483647))

let prop_tabled_hash_int62 =
  QCheck.Test.make ~name:"Linear: tabled hashes = closed forms (int62 field)" ~count:200 arb_seed
    (tabled_hashes_match (Field.int62_field 4611686018427387847))

let prop_tabled_hash_nat =
  QCheck.Test.make ~name:"Linear: tabled hashes = closed forms (nat fields)" ~count:200 arb_seed
    (fun seed ->
      tabled_hashes_match (Field.nat_field (Nat.of_int 4611686018427387847)) seed
      && tabled_hashes_match (Field.nat_field (Nat.of_string "170141183460469231731687303715884105727")) seed)

(* In-place k-wide accumulation against k scalar honest_sums and a naive
   recursive subtree sum, on random BFS trees. A quarter of the trees carry
   a root label other than the BFS root, the shape a split-root prover
   hands its own sums helper: that vertex's subtree then stays off its
   parent, and the BFS root's self-parent adds nothing. *)
let prop_accumulate_matches_scalar =
  QCheck.Test.make ~name:"Aggregation: k-wide accumulate = k honest_sums" ~count:200 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let f = Field.int_field 10007 in
      let n = 1 + Rng.int rng 30 and k = 1 + Rng.int rng 4 in
      let g =
        if Rng.bool rng then Graph.random_tree rng n else Graph.random_connected_gnp rng n 0.2
      in
      let tree = Spanning_tree.bfs g (Rng.int rng n) in
      let tree = if Rng.int rng 4 = 0 then { tree with Spanning_tree.root = Rng.int rng n } else tree in
      let terms = Array.init (n * k) (fun _ -> f.Field.random rng) in
      let wide = Array.copy terms in
      Aggregation.accumulate f tree ~k wide;
      let parent = tree.Spanning_tree.parent in
      let kids v = List.filter (fun u -> parent.(u) = v && u <> v && u <> tree.Spanning_tree.root) (List.init n Fun.id) in
      let rec naive i v = List.fold_left (fun acc u -> f.Field.add acc (naive i u)) terms.((v * k) + i) (kids v) in
      let order = Spanning_tree.leaves_first tree in
      let dist = tree.Spanning_tree.dist in
      List.sort compare (Array.to_list order) = List.init n Fun.id
      && Array.for_all Fun.id (Array.init (n - 1) (fun j -> dist.(order.(j)) >= dist.(order.(j + 1))))
      && List.for_all
           (fun i ->
             let scalar = Aggregation.honest_sums f tree ~term:(fun v -> terms.((v * k) + i)) in
             List.for_all
               (fun v -> scalar.(v) = wide.((v * k) + i) && scalar.(v) = naive i v)
               (List.init n Fun.id))
           (List.init k Fun.id))

(* BFS's visit order on random connected graphs, sparse trees and gnp
   graphs of either density, on either backend: a permutation starting at
   the root, along which [dist] never decreases, each level sorted by
   (parent's position, vertex), and every vertex after its parent, so that
   read in reverse it puts each vertex after all of its descendants.
   Accumulating over it equals the leaves-first accumulation. *)
let prop_bfs_visit_order =
  QCheck.Test.make ~name:"Spanning_tree: BFS visit order" ~count:200 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 40 in
      let repr = if Rng.bool rng then Graph.Sparse else Graph.Dense in
      let g =
        match Rng.int rng 3 with
        | 0 -> Graph.random_tree ~repr rng n
        | 1 -> Graph.random_connected_gnp ~repr rng n 0.1
        | _ -> Graph.random_connected_gnp ~repr rng n 0.6
      in
      let root = Rng.int rng n in
      let tree, order = Spanning_tree.bfs_visit g root in
      let parent = tree.Spanning_tree.parent and dist = tree.Spanning_tree.dist in
      let pos = Array.make n (-1) in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      let f = Field.int_field 10007 and k = 1 + Rng.int rng 3 in
      let terms = Array.init (n * k) (fun _ -> f.Field.random rng) in
      let by_visit = Array.copy terms and by_depth = Array.copy terms in
      Aggregation.accumulate ~visit:order f tree ~k by_visit;
      Aggregation.accumulate f tree ~k by_depth;
      tree = Spanning_tree.bfs g root
      && order.(0) = root
      && List.sort compare (Array.to_list order) = List.init n Fun.id
      && List.for_all
           (fun i ->
             let v = order.(i) and u = order.(i + 1) in
             dist.(v) <= dist.(u)
             && (dist.(v) < dist.(u) || (pos.(parent.(v)), v) < (pos.(parent.(u)), u)))
           (List.init (n - 1) Fun.id)
      && List.for_all (fun v -> v = root || pos.(parent.(v)) < pos.(v)) (List.init n Fun.id)
      && List.for_all
           (fun v -> List.for_all (fun u -> u = v || pos.(u) > pos.(v)) (Spanning_tree.subtree tree v))
           (List.init n Fun.id)
      && by_visit = by_depth)

(* --- graph structure --------------------------------------------------------------- *)

let prop_relabel_preserves_degrees =
  QCheck.Test.make ~name:"Graph: relabel preserves the degree multiset" ~count:150 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let g = Graph.random_gnp rng 10 0.4 in
      let p = Perm.random rng 10 in
      let h = Graph.relabel g (Perm.to_array p) in
      let degrees g = List.sort Stdlib.compare (List.init 10 (Graph.degree g)) in
      degrees g = degrees h)

let prop_relabel_degree_at_image =
  QCheck.Test.make ~name:"Graph: degree of sigma(v) in relabel = degree of v" ~count:150 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let g = Graph.random_gnp rng 9 0.4 in
      let p = Perm.random rng 9 in
      let h = Graph.relabel g (Perm.to_array p) in
      List.for_all (fun v -> Graph.degree h (Perm.apply p v) = Graph.degree g v) (List.init 9 Fun.id))

let prop_induced_edges_exact =
  QCheck.Test.make ~name:"Graph: induced keeps exactly the internal edges" ~count:150 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let g = Graph.random_gnp rng 10 0.4 in
      let vs = [ 1; 4; 6; 9 ] in
      let h = Graph.induced g vs in
      let vs_arr = Array.of_list vs in
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> Graph.has_edge h i j = Graph.has_edge g vs_arr.(i) vs_arr.(j))
            (List.init 4 Fun.id |> List.filter (( <> ) i)))
        (List.init 4 Fun.id))

let prop_complement_degrees =
  QCheck.Test.make ~name:"Graph: edge counts of G plus its complement = C(n,2)" ~count:100 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let n = 9 in
      let g = Graph.random_gnp rng n 0.5 in
      let comp = Graph.make n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if not (Graph.has_edge g u v) then Graph.add_edge comp u v
        done
      done;
      Graph.edge_count g + Graph.edge_count comp = n * (n - 1) / 2)

let test_hypercube_automorphisms () =
  (* |Aut(Q_3)| = 2^3 * 3! = 48. *)
  Alcotest.(check int) "Q3" 48 (Iso.automorphism_count (Graph.hypercube 3))

let test_spanning_tree_edge_count () =
  let rng = Rng.create 42 in
  for _ = 1 to 20 do
    let g = Graph.random_connected_gnp rng 18 0.25 in
    let t = Spanning_tree.bfs g 0 in
    let tree_edges = List.length (List.filter (fun v -> v <> 0) (List.init 18 Fun.id)) in
    ignore tree_edges;
    (* every non-root has exactly one parent: n - 1 tree edges *)
    let parents = List.init 18 (fun v -> (min v t.Spanning_tree.parent.(v), max v t.Spanning_tree.parent.(v))) in
    let distinct = List.sort_uniq Stdlib.compare (List.filter (fun (a, b) -> a <> b) parents) in
    Alcotest.(check int) "n-1 edges" 17 (List.length distinct)
  done

(* --- permutation laws ----------------------------------------------------------------- *)

let prop_perm_inverse_involution =
  QCheck.Test.make ~name:"Perm: inverse of inverse" ~count:150 arb_seed (fun seed ->
      let p = Perm.random (Rng.create seed) 12 in
      Perm.equal p (Perm.inverse (Perm.inverse p)))

let prop_perm_apply_set_cardinal =
  QCheck.Test.make ~name:"Perm: image preserves cardinality" ~count:150 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = Perm.random rng 12 in
      let s = Bitset.create 12 in
      for i = 0 to 11 do
        if Rng.bool rng then Bitset.add s i
      done;
      Bitset.cardinal (Perm.apply_set p s) = Bitset.cardinal s)

let prop_perm_apply_set_union =
  QCheck.Test.make ~name:"Perm: image distributes over union" ~count:150 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = Perm.random rng 10 in
      let mk () =
        let s = Bitset.create 10 in
        for i = 0 to 9 do
          if Rng.bool rng then Bitset.add s i
        done;
        s
      in
      let a = mk () and b = mk () in
      Bitset.equal (Perm.apply_set p (Bitset.union a b)) (Bitset.union (Perm.apply_set p a) (Perm.apply_set p b)))

(* --- family invariants ------------------------------------------------------------------ *)

let prop_dsym_graph_always_member =
  QCheck.Test.make ~name:"Family: dsym_graph is always a DSym member and symmetric" ~count:40 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let n = 6 + Rng.int rng 3 in
      let r = 1 + Rng.int rng 3 in
      let f = Graph.random_connected_gnp rng n 0.5 in
      let g = Family.dsym_graph f r in
      Family.is_dsym_member ~n ~r g && Iso.is_symmetric g)

let prop_dumbbell_size_and_cut =
  QCheck.Test.make ~name:"Family: dumbbell has 2n+2 vertices and the bridge" ~count:60 arb_seed
    (fun seed ->
      let rng = Rng.create seed in
      let f1 = Graph.random_gnp rng 7 0.5 and f2 = Graph.random_gnp rng 7 0.5 in
      let g = Family.dumbbell f1 f2 in
      Graph.n g = 16
      && Graph.has_edge g 0 14 && Graph.has_edge g 14 15 && Graph.has_edge g 15 7
      && Graph.edge_count g = Graph.edge_count f1 + Graph.edge_count f2 + 3)

(* --- prime facts the protocols rely on ---------------------------------------------------- *)

let prop_protocol1_prime_window_nonempty =
  QCheck.Test.make ~name:"Prime: [10n^3, 100n^3] always contains a prime (Bertrand)" ~count:30
    (QCheck.make QCheck.Gen.(int_range 2 300))
    (fun n ->
      let p = Prime.random_prime_in_int (Rng.create n) (10 * n * n * n) (100 * n * n * n) in
      p >= 10 * n * n * n && p <= 100 * n * n * n)

let prop_miller_rabin_agrees_with_trial_division =
  QCheck.Test.make ~name:"Prime: Miller-Rabin agrees with trial division below 10^6" ~count:300
    (QCheck.make QCheck.Gen.(int_range 2 1_000_000))
    (fun n -> Prime.is_prime (Rng.create n) (Nat.of_int n) = Prime.is_prime_int n)

let suite =
  [ ( "properties:nat",
      List.map qtest
        [ prop_nat_add_commutative_assoc;
          prop_nat_sub_add_roundtrip;
          prop_nat_pow_splits;
          prop_nat_compare_antisymmetric;
          prop_nat_random_in_bounds;
          prop_nat_random_below_int
        ] );
    ( "properties:field",
      List.map qtest
        [ prop_field_ring_laws;
          prop_field_fermat_inverse;
          prop_field_pow_hom;
          prop_field_carriers_agree;
          prop_nat_field_one_limb
        ] );
    ( "properties:hash",
      List.map qtest
        [ prop_hash_identity_perm;
          prop_hash_duplicate_rows_double;
          prop_hash_row_shift;
          prop_tabled_term_int;
          prop_tabled_term_int62;
          prop_tabled_term_nat;
          prop_reused_writer;
          prop_tabled_hash_int;
          prop_tabled_hash_int62;
          prop_tabled_hash_nat
        ] );
    ("properties:agg", List.map qtest [ prop_accumulate_matches_scalar; prop_bfs_visit_order ]);
    ( "properties:graph",
      Alcotest.test_case "hypercube automorphisms" `Quick test_hypercube_automorphisms
      :: Alcotest.test_case "spanning tree edge count" `Quick test_spanning_tree_edge_count
      :: List.map qtest
           [ prop_relabel_preserves_degrees;
             prop_relabel_degree_at_image;
             prop_induced_edges_exact;
             prop_complement_degrees
           ] );
    ( "properties:perm",
      List.map qtest [ prop_perm_inverse_involution; prop_perm_apply_set_cardinal; prop_perm_apply_set_union ] );
    ( "properties:family", List.map qtest [ prop_dsym_graph_always_member; prop_dumbbell_size_and_cut ] );
    ( "properties:prime",
      List.map qtest [ prop_protocol1_prime_window_nonempty; prop_miller_rabin_agrees_with_trial_division ] )
  ]
