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

type params = { p : int; field : int Field.t }

let params_for ~seed g =
  let n = max 2 (Graph.n g) in
  let rng = Rng.create (seed lxor 0x5f3b) in
  let p = Ids_bignum.Prime.random_prime_in_int rng (10 * n * n * n) (100 * n * n * n) in
  { p; field = Field.int_field p }

type commitment = { root : int array; rho : int array; parent : int array; dist : int array }

type response = { index : int array; a : int array; b : int array }

type prover = {
  name : string;
  commit : params -> Graph.t -> commitment;
  respond : params -> Graph.t -> commitment -> int array -> response;
}

let const n v = Array.make n v

(* A spanning tree rooted at a vertex moved by [rho], as the honest prover
   builds it. *)
let tree_for_rho g rho =
  let n = Graph.n g in
  let rec moved v = if v >= n then 0 else if Perm.apply rho v <> v then v else moved (v + 1) in
  Precomp.tree g (moved 0)

let commit_with_rho g rho =
  let n = Graph.n g in
  let tree = tree_for_rho g rho in
  { root = const n tree.Spanning_tree.root;
    rho = Array.init n (Perm.apply rho);
    parent = Array.copy tree.Spanning_tree.parent;
    dist = Array.copy tree.Spanning_tree.dist
  }

(* Consistent second-round play for whatever [rho] was committed: echo the
   root's challenge and send the true subtree sums for both matrices. *)
let respond_consistently params g (c : commitment) challenges =
  let n = Graph.n g in
  let f = params.field in
  let root = c.root.(0) in
  let i = challenges.(root) in
  let tree =
    { Spanning_tree.root; parent = Array.copy c.parent; dist = Array.copy c.dist }
  in
  (* One pair of row tables for the shared index replaces a modular
     exponentiation per row term in both sums. *)
  let tabs = Linear.row_tables f i ~n in
  let term_a v = Linear.node_hash_tables f tabs g v in
  let term_b v = Linear.mapped_node_hash_tables f tabs g ~map:c.rho v in
  { index = const n i;
    a = Aggregation.honest_sums f tree ~term:term_a;
    b = Aggregation.honest_sums f tree ~term:term_b
  }

let fallback_rho g =
  (* A losing but well-formed move for provers with no winning strategy. *)
  Perm.transposition (Graph.n g) 0 (min 1 (Graph.n g - 1))

let honest =
  { name = "honest";
    commit =
      (fun _params g ->
        let rho = Option.value (Precomp.nontrivial_automorphism g) ~default:(fallback_rho g) in
        commit_with_rho g rho);
    respond = respond_consistently
  }

let run_body ?fault ?params ~seed g prover =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sym_dmam.run: need at least 2 nodes";
  let params = match params with Some p -> p | None -> params_for ~seed g in
  let f = params.field in
  let net = Network.create ?fault ~seed g in
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
  let field_corrupt = Fault.flip_int_bit ~bits:f.Field.bits in
  (* Merlin round 1. *)
  let c = prover.commit params g in
  let root_bc = Network.broadcast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.root in
  let rho_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.rho in
  let parent_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.parent in
  let dist_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.dist in
  (* Arthur round: random hash indices. *)
  let challenges = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  (* Merlin round 2. *)
  let r = prover.respond params g c challenges in
  let index_bc = Network.broadcast net ~corrupt:field_corrupt ~bits:f.Field.bits r.index in
  let a_u = Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits r.a in
  let b_u = Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits r.b in
  (* Verification. *)
  let field_ok x = Aggregation.in_range params.p x in
  let tables_of = Linear.row_tables_memo f ~n in
  let decide =
    Aggregation.verifier f ~in_field:field_ok net ~root:root_bc ~parent:parent_u ~dist:dist_u
      ~quantities:2
      ~claimed:(fun v j -> if j = 0 then a_u.(v) else b_u.(v))
      ~own:(fun v dst ->
        let tabs = tables_of index_bc.(v) in
        dst.(0) <- Linear.node_hash_tables f tabs g v;
        dst.(1) <- Linear.mapped_node_hash_tables f tabs g ~map:rho_u v)
      ~same:(fun u v -> index_bc.(u) = index_bc.(v))
      ~local:(fun v ->
        (* Every rho value this node relies on must name a vertex. *)
        field_ok index_bc.(v)
        && Bitset.fold (fun u acc -> acc && Aggregation.in_range n rho_u.(u))
             (Graph.closed_neighborhood g v) true)
      ~at_root:(fun v -> f.Field.equal a_u.(v) b_u.(v) && rho_u.(v) <> v && index_bc.(v) = challenges.(v))
  in
  let accepted = Network.decide net decide in
  Outcome.of_cost ~accepted ~prover:prover.name (Network.cost net)

let run ?fault ?params ~seed g prover =
  Ids_obs.Obs.span "sym_dmam.run" (fun () -> run_body ?fault ?params ~seed g prover)

(* --- analysis ---------------------------------------------------------------- *)

(* Collision counts of every candidate over the whole family. The tables
   and the unpermuted hash depend only on the index, so each is built once
   per index and shared by all candidates. *)
let collision_counts params g rhos =
  let f = params.field in
  let n = Graph.n g in
  let counts = Array.make (Array.length rhos) 0 in
  for i = 0 to params.p - 1 do
    let tabs = Linear.row_tables f i ~n in
    let ha = Linear.graph_hash_tables f tabs g in
    Array.iteri
      (fun j rho -> if Linear.permuted_graph_hash_tables f tabs g rho = ha then counts.(j) <- counts.(j) + 1)
      rhos
  done;
  counts

let acceptance_probability_exact params g rho =
  float_of_int (collision_counts params g [| rho |]).(0) /. float_of_int params.p

let best_adversary_bound ?(sample = 20) ~seed params g =
  let n = Graph.n g in
  let rng = Rng.create seed in
  let candidates =
    List.concat
      [ List.concat_map
          (fun i -> List.filter_map (fun j -> if i < j then Some (Perm.transposition n i j) else None)
              (List.init n Fun.id))
          (List.init n Fun.id);
        List.init sample (fun _ -> Perm.random_nonidentity rng n)
      ]
  in
  Array.fold_left
    (fun best c -> Float.max best (float_of_int c /. float_of_int params.p))
    0.
    (collision_counts params g (Array.of_list candidates))
