module Graph = Ids_graph.Graph
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Api = Ids_hash.Api
module Rng = Ids_bignum.Rng
module Engine = Ids_engine.Engine
module Scheduler = Ids_engine.Scheduler
module Obs = Ids_obs.Obs

type params = { q : int; field : int Field.t; copies : int; domains : int; tables : int Api.memo }

(* A modulus that makes the eps-API bound meaningful: eps = q (m/q)^k < 1
   needs q > m^(k/(k-1)) for m = n² + n matrix cells, so we draw a seeded
   random prime in [4 m^(3/2), 8 m^(3/2)] (giving eps <= 1/16 at the
   default k = 3).

   Since the wide-limb migration the draw extends past the old 2^30 pin:
   the 2^62 scalar field (C widening mulmod) covers the true §4 prime for
   every m up to 2^40 — n beyond 10^6, the largest committed scale run.
   Above m = 2^40 the interval's lower end 4 m^(3/2) itself outgrows
   max_int = 2^62 - 1, and q caps at the largest prime below 2^62
   (completeness stays exact for every q; soundness eps = m³/q² degrades
   gracefully only past that astronomic point). When max_int truncates the
   interval's upper end 8 m^(3/2), soundness is unaffected: eps <= 1/16
   only needs q >= 4 m^(3/2). *)
let wide_cap_q = 4611686018427387847 (* largest prime below 2^62: 2^62 - 57 *)

(* Largest m with 4 m^(3/2) <= max_int, i.e. m^3 <= 2^120 / 16: m <= 2^40
   means every product below stays in range (4m < 2^43, isqrt m < 2^21). *)
let wide_draw_max_m = 1 lsl 40

(* Floor square root, integer-exact (the float seed is only a first guess,
   so the draw below is deterministic across platforms). *)
let isqrt m =
  let s = ref (int_of_float (sqrt (float_of_int m))) in
  while !s * !s > m do
    decr s
  done;
  while (!s + 1) * (!s + 1) <= m do
    incr s
  done;
  !s

let params_for ?domains ?(k = Api.default_copies) ~seed g =
  if k < 1 then invalid_arg "Apihash.params_for: need k >= 1";
  let n = Graph.n g in
  let m = (n * n) + n in
  (* m <= 2^18 is exactly when 8 m^(3/2) <= 2^30: the historical native
     branch, kept verbatim (draw for draw) so every committed small-graph
     estimate and pin is untouched by the scale lift below. *)
  let q =
    if m <= 1 lsl 18 then begin
      let lo = 4 * m * isqrt m in
      Ids_bignum.Prime.random_prime_in_int (Rng.create (seed lxor 0x4a71)) lo (2 * lo)
    end
    else if m <= wide_draw_max_m then begin
      let lo = 4 * m * isqrt m in
      (* 2 * lo can pass max_int near the top of the range; the clamp only
         trims the interval's upper half, which soundness never needed. *)
      let hi = if lo <= max_int / 2 then 2 * lo else max_int in
      Ids_bignum.Prime.random_prime_in_int (Rng.create (seed lxor 0x4a71)) lo hi
    end
    else wide_cap_q
  in
  let field = if q < 1 lsl 31 then Field.int_field q else Field.int62_field q in
  let domains = match domains with Some d -> Int.max 1 d | None -> Engine.default_domains () in
  { q; field; copies = k; domains; tables = Api.memo () }

let epsilon params ~n =
  Api.epsilon params.field ~n ~k:params.copies ~q:(float_of_int params.q)

(* The prover's whole message, as the honest prover computes it: spanning
   tree labels rooted at [root], per-node subtree aggregates of the k inner
   row hashes, and the claimed hash of the adjacency matrix. [agg] is
   flattened n×k so a million-node advice is one unboxed int array. *)
type advice = {
  root : int;
  parent : int array;
  dist : int array;
  agg : int array;
  claim : int;
}

(* The prover's phases, each under an Obs span: BFS beside the power
   tables, the row terms, the accumulation. BFS reads only the graph and
   the tables only the spec, so BFS is one task of the pool batch that
   fills the table segments. Each node's k-vector is then computed once,
   straight into its flat slot, over node ranges on the pool (the ranges
   write disjoint slots and share the tables read-only), and the subtree
   sums accumulate in place over BFS's visit order, read in reverse. *)
let honest_advice params (spec : int Api.spec) ~root g =
  let n = Graph.n g in
  let f = params.field and k = params.copies and domains = params.domains in
  let bfs = ref None in
  let tables =
    Obs.span "apihash.bfs_tables" (fun () ->
        Api.memo_tables ~domains
          ~alongside:(fun () -> bfs := Some (Spanning_tree.bfs_visit g root))
          params.tables f spec ~n)
  in
  let tree, visit = Option.get !bfs in
  let agg = Array.make (n * k) 0 in
  Obs.span "apihash.row_terms" (fun () ->
      ignore
        (Scheduler.map_ranges ~domains ~n (fun ~lo ~hi ->
             let term = Api.node_term_into f in
             for v = lo to hi - 1 do
               term tables g v agg (v * k)
             done)));
  Obs.span "apihash.accumulate" (fun () -> Aggregation.accumulate ~visit f tree ~k agg);
  { root;
    parent = tree.Spanning_tree.parent;
    dist = tree.Spanning_tree.dist;
    agg;
    claim = Api.finalize f spec (Array.sub agg (root * k) k)
  }

type prover = params -> int Api.spec -> root:int -> Graph.t -> advice

let honest : prover = fun params spec ~root g -> honest_advice params spec ~root g

(* Forge the claimed hash without fixing the aggregates: the root's
   finalize equation catches it with probability 1. *)
let adversary_wrong_claim : prover =
 fun params spec ~root g ->
  let a = honest_advice params spec ~root g in
  { a with claim = (a.claim + 1) mod params.q }

(* Patch one node's first inner aggregate: either that node's subtree
   equation or its parent's breaks. *)
let adversary_corrupt_agg node : prover =
 fun params spec ~root g ->
  let a = honest_advice params spec ~root g in
  let agg = Array.copy a.agg in
  let j = node * params.copies in
  agg.(j) <- (agg.(j) + 1) mod params.q;
  { a with agg }

let response_bits_per_node f ~k n =
  (* spec echo + claim + root broadcast, parent + dist + k aggregates
     unicast: Θ(k log n) per node — the §4 budget. *)
  Api.spec_bits f ~k + f.Field.bits + Bits.id n + (2 * Bits.id n) + (k * f.Field.bits)

(* One execution over the array rounds: each round delivers one machine
   word per node, and verification runs inside Network.decide_ranges —
   each node's row term is recomputed from its shared O(degree) graph row
   on demand. *)
let run_body ?domains ?fault ?(prover = honest) ?k ~seed ~root g =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Apihash.run: root out of range";
  let params = params_for ?domains ?k ~seed g in
  let f = params.field and k = params.copies and domains = params.domains in
  let net = Network.create ?fault ~seed g in
  let spec_bits = Api.spec_bits f ~k in
  (* Arthur: every node draws a spec, and the root's draw is the shared one
     the prover must echo. The round charges and faults all n draws, but
     only the root's is ever read, so only the root's generator is
     derived, by position: the same spec as drawing at every node, and no
     allocation per node. The other n - 1 draws would each cost a
     rejection loop per field element whose length depends on how close q
     lies to a power of two, i.e. on the seed. *)
  let root_spec =
    Obs.span "apihash.arthur" (fun () ->
        Api.random_spec f ~k (Network.challenge_rngs net ~bits:spec_bits root))
  in
  let a = prover params root_spec ~root g in
  let rounds () =
    (* Merlin broadcasts; unfaulted runs share a single spec record across
       all n slots. *)
    let field_corrupt = Fault.flip_int_bit ~bits:f.Field.bits in
    let spec_corrupt rng (s : int Api.spec) = { s with Api.shift = field_corrupt rng s.Api.shift } in
    let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
    let spec_bc = Network.broadcast_uniform net ~corrupt:spec_corrupt ~bits:spec_bits root_spec in
    let claim_bc = Network.broadcast_uniform net ~corrupt:field_corrupt ~bits:f.Field.bits a.claim in
    let root_bc = Network.broadcast_uniform net ~corrupt:id_corrupt ~bits:(Bits.id n) a.root in
    (* Merlin unicasts: tree labels, then each node's k-row of subtree
       aggregates. The row round delivers row v as the index v into the
       prover's flat array, not as a copy; a row a fault corrupts is copied
       out, corrupted, and delivered as a negative index into [forged]. *)
    let parent_bc = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) a.parent in
    let dist_bc = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) a.dist in
    (* A row past the end of a cheating prover's array reads as -1, which the
       range check rejects deterministically. *)
    let sent s i = if (s * k) + i < Array.length a.agg then a.agg.((s * k) + i) else -1 in
    let forged_rev = ref [] and nforged = ref 0 in
    let forge rng s =
      forged_rev := Fault.corrupt_entry field_corrupt rng (Array.init k (sent s)) :: !forged_rev;
      incr nforged;
      - !nforged
    in
    let row_bc = Network.unicast net ~corrupt:forge ~bits:(k * f.Field.bits) (Array.init n Fun.id) in
    let forged = Array.of_list (List.rev !forged_rev) in
    let agg v i = let s = row_bc.(v) in if s >= 0 then sent s i else forged.(-s - 1).(i) in
    (spec_bc, claim_bc, root_bc, parent_bc, dist_bc, agg)
  in
  let spec_bc, claim_bc, root_bc, parent_bc, dist_bc, agg = Obs.span "apihash.merlin" rounds in
  (* Local verification inside decide, over node ranges on the pool. The
     spec range check runs and the power tables of every delivered point
     vector that passes it are resolved first, serially, and read by every
     range: on an honest run that is one check and the one set the prover
     built. Each range has its own verifier, whose scratch is its own. *)
  let field_ok x = Aggregation.in_range params.q x in
  let spec_eq (x : int Api.spec) (y : int Api.spec) = x == y || x = y in
  let decide () =
    let tables_of = Api.tables_for ~domains params.tables f ~n ~valid:(Api.spec_ok ~k ~in_field:field_ok) spec_bc in
    let check () =
      let own = Api.node_term_into f in
      Aggregation.verifier f ~in_field:field_ok net ~root:root_bc ~parent:parent_bc ~dist:dist_bc
        ~quantities:k ~claimed:agg
        ~own:(fun v dst -> own (Option.get (tables_of v)) g v dst 0)
        ~same:(fun u v -> claim_bc.(u) = claim_bc.(v) && spec_eq spec_bc.(u) spec_bc.(v))
        ~local:(fun v -> field_ok claim_bc.(v) && Option.is_some (tables_of v))
        ~at_root:(fun v ->
          f.Field.equal (Api.finalize f spec_bc.(v) (Array.init k (agg v))) claim_bc.(v)
          && v = root && spec_eq spec_bc.(v) root_spec)
    in
    Network.decide_ranges net ~domains check
  in
  let accepted = Obs.span "apihash.decide" decide in
  Outcome.of_cost ~accepted ~prover:"apihash" (Network.cost net)

let run ?domains ?fault ?prover ?k ~seed ~root g =
  Obs.span "apihash.run" (fun () -> run_body ?domains ?fault ?prover ?k ~seed ~root g)
