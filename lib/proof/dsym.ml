module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Rng = Ids_bignum.Rng

type instance = { n : int; r : int; graph : Graph.t }

let make_instance ~n ~r graph =
  if Graph.n graph <> (2 * n) + (2 * r) + 1 then invalid_arg "Dsym.make_instance: wrong vertex count";
  { n; r; graph }

type params = { p : int; field : int Field.t }

let params_for ~seed inst =
  let size = Graph.n inst.graph in
  let rng = Rng.create (seed lxor 0x3d5) in
  let p = Ids_bignum.Prime.random_prime_in_int rng (10 * size * size * size) (100 * size * size * size) in
  { p; field = Field.int_field p }

type response = {
  index : int array;
  root : int array;
  parent : int array;
  dist : int array;
  a : int array;
  b : int array;
}

type prover = { name : string; respond : params -> instance -> int array -> response }

let const n v = Array.make n v

(* Vertex 0 is never fixed by sigma (it maps to n), so the honest prover
   always roots the tree there. *)
let honest_root = 0

(* Honest-shaped play for an arbitrary tree root and aggregation
   permutation: echo the root's challenge and send the true subtree sums of
   both matrices, aggregating the b-matrix under [sigma]. The verifiers
   recompute their own b-terms under the true public sigma, so any other
   [sigma] fails their subtree equations deterministically. *)
let respond_with ~root ~sigma params inst challenges =
  let g = inst.graph in
  let size = Graph.n g in
  let f = params.field in
  let tree = Precomp.tree g root in
  let i = challenges.(root) in
  (* One pair of row tables for the shared index replaces a modular
     exponentiation per row term in both sums. *)
  let tabs = Linear.row_tables f i ~n:size in
  let term_a v = Linear.node_hash_tables f tabs g v in
  let term_b v = Linear.permuted_node_hash_tables f tabs g sigma v in
  { index = const size i;
    root = const size root;
    parent = Array.copy tree.Spanning_tree.parent;
    dist = Array.copy tree.Spanning_tree.dist;
    a = Aggregation.honest_sums f tree ~term:term_a;
    b = Aggregation.honest_sums f tree ~term:term_b
  }

let respond_consistently params inst challenges =
  respond_with ~root:honest_root ~sigma:(Precomp.dsym_sigma ~n:inst.n ~r:inst.r) params inst
    challenges

let honest = { name = "honest"; respond = respond_consistently }

(* The purely structural conditions (2) and (3) of Definition 5, from the
   point of view of a single node: which edges is [v] allowed / required to
   have? All of it is a function of [v]'s own neighborhood and the public
   parameters (n, r). *)
let structure_ok inst v =
  let g = inst.graph and n = inst.n and r = inst.r in
  let path_prev x = if x = 2 * n then 0 else x - 1 in
  let path_next x = if x = (2 * n) + (2 * r) then n else x + 1 in
  let allowed u w =
    (* Is the edge {u, w} permitted by condition (3)? *)
    let internal_a = u < n && w < n in
    let internal_b = u >= n && u < 2 * n && w >= n && w < 2 * n in
    let path u w = (u >= 2 * n && (w = path_prev u || w = path_next u)) in
    internal_a || internal_b || path u w || path w u
  in
  let neighbors = Graph.neighbors g v in
  let all_allowed = Bitset.fold (fun u acc -> acc && allowed v u) neighbors true in
  let required =
    if v >= 2 * n then Graph.has_edge g v (path_prev v) && Graph.has_edge g v (path_next v)
    else if v = 0 then Graph.has_edge g v (2 * n)
    else if v = n then Graph.has_edge g v ((2 * n) + (2 * r))
    else true
  in
  all_allowed && required

let run_body ?fault ?params ~seed inst prover =
  let g = inst.graph in
  let size = Graph.n g in
  let params = match params with Some p -> p | None -> params_for ~seed inst in
  let f = params.field in
  let sigma = Precomp.dsym_sigma ~n:inst.n ~r:inst.r in
  let net = Network.create ?fault ~seed g in
  let challenges = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  let r = prover.respond params inst challenges in
  (* Corrupt hooks flip a bit of the payload at its transmitted width; the
     range checks below catch out-of-range garbles, the hash / tree / equality
     checks catch in-range ones. *)
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id size) in
  let field_corrupt = Fault.flip_int_bit ~bits:f.Field.bits in
  let index_bc = Network.broadcast net ~corrupt:field_corrupt ~bits:f.Field.bits r.index in
  let root_bc = Network.broadcast net ~corrupt:id_corrupt ~bits:(Bits.id size) r.root in
  let parent_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id size) r.parent in
  let dist_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id size) r.dist in
  let a_u = Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits r.a in
  let b_u = Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits r.b in
  let field_ok x = Aggregation.in_range params.p x in
  let tables_of = Linear.row_tables_memo f ~n:size in
  let decide =
    Aggregation.verifier f ~in_field:field_ok net ~root:root_bc ~parent:parent_u ~dist:dist_u
      ~quantities:2
      ~claimed:(fun v j -> if j = 0 then a_u.(v) else b_u.(v))
      ~own:(fun v dst ->
        let tabs = tables_of index_bc.(v) in
        dst.(0) <- Linear.node_hash_tables f tabs g v;
        dst.(1) <- Linear.permuted_node_hash_tables f tabs g sigma v)
      ~same:(fun u v -> index_bc.(u) = index_bc.(v))
      ~local:(fun v -> structure_ok inst v && field_ok index_bc.(v))
      ~at_root:(fun v -> a_u.(v) = b_u.(v) && Perm.apply sigma v <> v && index_bc.(v) = challenges.(v))
  in
  let accepted = Network.decide net decide in
  Outcome.of_cost ~accepted ~prover:prover.name (Network.cost net)

let run ?fault ?params ~seed inst prover =
  Ids_obs.Obs.span "dsym.run" (fun () -> run_body ?fault ?params ~seed inst prover)
