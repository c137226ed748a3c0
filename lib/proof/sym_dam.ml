module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng

type params = { p : Nat.t; field : Nat.t Field.t }

let params_for ~seed g =
  let n = max 2 (Graph.n g) in
  let rng = Rng.create (seed lxor 0x2a17) in
  let bound = Precomp.power_bound n (n + 2) in
  let p =
    Ids_bignum.Prime.random_prime_in rng (Nat.mul_int bound 10) (Nat.mul_int bound 100)
  in
  { p; field = Field.nat_field p }

type response = {
  rho : int array array;
  index : Nat.t array;
  root : int array;
  parent : int array;
  dist : int array;
  a : Nat.t array;
  b : Nat.t array;
}

type prover = { name : string; respond : params -> Graph.t -> Nat.t array -> response }

let const n v = Array.make n v

(* Consistent play for a given mapping: root moved by [rho], echo of the
   root's challenge, true subtree sums for both matrices. *)
let respond_with_rho params g challenges rho_table =
  let n = Graph.n g in
  let f = params.field in
  let rec moved v = if v >= n then 0 else if rho_table.(v) <> v then v else moved (v + 1) in
  let root = moved 0 in
  let tree = Precomp.tree g root in
  let i = challenges.(root) in
  (* Both sums evaluate every row at the same index: one pair of row
     tables replaces a modular exponentiation per row term. *)
  let tabs = Linear.row_tables f i ~n in
  let term_a v = Linear.node_hash_tables f tabs g v in
  let term_b v = Linear.mapped_node_hash_tables f tabs g ~map:rho_table v in
  { rho = const n rho_table;
    index = const n i;
    root = const n root;
    parent = Array.copy tree.Spanning_tree.parent;
    dist = Array.copy tree.Spanning_tree.dist;
    a = Aggregation.honest_sums f tree ~term:term_a;
    b = Aggregation.honest_sums f tree ~term:term_b
  }

let fallback_table n = Perm.to_array (Perm.transposition n 0 (min 1 (n - 1)))

let honest =
  { name = "honest";
    respond =
      (fun params g challenges ->
        let table =
          match Precomp.nontrivial_automorphism g with
          | Some rho -> Array.init (Graph.n g) (Perm.apply rho)
          | None -> fallback_table (Graph.n g)
        in
        respond_with_rho params g challenges table)
  }

let run_body ?fault ?params ~seed g prover =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sym_dam.run: need at least 2 nodes";
  let params = match params with Some p -> p | None -> params_for ~seed g in
  let f = params.field in
  let net = Network.create ?fault ~seed g in
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
  let nat_corrupt = Fault.flip_nat_bit ~bits:f.Field.bits in
  (* Arthur round. *)
  let challenges = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  (* Merlin round. *)
  let r = prover.respond params g challenges in
  let rho_bc = Network.broadcast net ~corrupt:Fault.swap_entries ~bits:(Bits.perm n) r.rho in
  let index_bc = Network.broadcast net ~corrupt:nat_corrupt ~bits:f.Field.bits r.index in
  let root_bc = Network.broadcast net ~corrupt:id_corrupt ~bits:(Bits.id n) r.root in
  let parent_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) r.parent in
  let dist_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) r.dist in
  let a_u = Network.unicast net ~corrupt:nat_corrupt ~bits:f.Field.bits r.a in
  let b_u = Network.unicast net ~corrupt:nat_corrupt ~bits:f.Field.bits r.b in
  let field_ok x = Nat.compare x params.p < 0 in
  let tables_of = Linear.row_tables_memo f ~n in
  let decide =
    Aggregation.verifier f ~in_field:field_ok net ~root:root_bc ~parent:parent_u ~dist:dist_u
      ~quantities:2
      ~claimed:(fun v j -> if j = 0 then a_u.(v) else b_u.(v))
      ~own:(fun v dst ->
        let tabs = tables_of index_bc.(v) in
        dst.(0) <- Linear.node_hash_tables f tabs g v;
        dst.(1) <- Linear.mapped_node_hash_tables f tabs g ~map:rho_bc.(v) v)
      ~same:(fun u v -> rho_bc.(u) = rho_bc.(v) && Nat.equal index_bc.(u) index_bc.(v))
      ~local:(fun v ->
        let rho = rho_bc.(v) in
        Array.length rho = n && Array.for_all (Aggregation.in_range n) rho && field_ok index_bc.(v))
      ~at_root:(fun v ->
        f.Field.equal a_u.(v) b_u.(v) && rho_bc.(v).(v) <> v && Nat.equal index_bc.(v) challenges.(v))
  in
  let accepted = Network.decide net decide in
  Outcome.of_cost ~accepted ~prover:prover.name (Network.cost net)

let run ?fault ?params ~seed g prover =
  Ids_obs.Obs.span "sym_dam.run" (fun () -> run_body ?fault ?params ~seed g prover)

(* --- collision search ------------------------------------------------------- *)

let collides params g table tabs =
  let f = params.field in
  let n = Graph.n g in
  let ha = Linear.graph_hash_tables f tabs g in
  let hb =
    let acc = ref f.Field.zero in
    for v = 0 to n - 1 do
      acc := f.Field.add !acc (Linear.mapped_node_hash_tables f tabs g ~map:table v)
    done;
    !acc
  in
  f.Field.equal ha hb

let search_table ?(extra = 20) ~seed params g challenges =
  let n = Graph.n g in
  let rng = Rng.create seed in
  let candidates =
    List.concat
      [ List.concat_map
          (fun u ->
            List.filter_map
              (fun w -> if u < w then Some (Perm.to_array (Perm.transposition n u w)) else None)
              (List.init n Fun.id))
          (List.init n Fun.id);
        List.init extra (fun _ -> Perm.to_array (Perm.random_nonidentity rng n))
      ]
  in
  (* The root the consistent strategy will use is the first vertex the
     mapping moves, so test the collision under that root's challenge.
     At most n distinct roots arise over all candidates, so memoize the
     row tables by challenge index. *)
  let tables_of = Linear.row_tables_memo params.field ~n in
  let winning table =
    let rec moved v = if v >= n then 0 else if table.(v) <> v then v else moved (v + 1) in
    collides params g table (tables_of challenges.(moved 0))
  in
  match List.find_opt winning candidates with Some t -> t | None -> fallback_table n
