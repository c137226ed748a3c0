module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Api = Ids_hash.Api
module Rng = Ids_bignum.Rng

type row = int * Bitset.t

type layout = int array array -> int -> int -> row list * row array

type candidate = { b : int; tables : int array array; rows : row array }

type t = {
  graph : Graph.t;
  width : int;
  set_size : int;
  salt : int;
  slack : int;
  tables : int;
  audits : int;
  layout : layout;
  set : candidate array Lazy.t;
  lock : Mutex.t;
}

let make ~graph ~width ~set_size ~salt ~slack ~tables ~audits ~layout ~enumerate =
  let rec t =
    { graph; width; set_size; salt; slack; tables; audits; layout;
      set = lazy (enumerate t);
      lock = Mutex.create ()
    }
  in
  t

let graph t = t.graph

let size t = Graph.n t.graph

let candidate t ~b tables =
  let rows = List.concat (List.init (size t) (fun v -> fst (t.layout tables b v))) in
  { b; tables; rows = Array.of_list rows }

(* OCaml 5's Lazy.force is not domain-safe: two engine workers forcing the
   set at once make one of them raise CamlinternalLazy.Undefined. *)
let candidates t = Mutex.protect t.lock (fun () -> Lazy.force t.set)

type params = {
  q : int;
  field : int Field.t;
  copies : int;
  repetitions : int;
  threshold : int;
  set_size : int;
  yes_bound : float;
  no_bound : float;
}

(* Single-repetition acceptance bounds from the GS analysis with an eps-API
   hash (see Api's documentation); the NO side adds the variant's audit
   slack. *)
let params_for ?(repetitions = 600) ~seed (t : t) =
  let k = Api.default_copies and s = t.set_size in
  let rng = Rng.create (seed lxor t.salt) in
  let q = Ids_bignum.Prime.random_prime_in_int rng (4 * s) (8 * s) in
  let field = Field.int_field q in
  let fq = float_of_int q and fs = float_of_int s in
  let eps = Api.epsilon field ~n:t.width ~k ~q:fq in
  let s2 = 2. *. fs in
  let yes = (s2 /. fq) -. (s2 *. s2 *. (1. +. eps) /. (2. *. fq *. fq)) in
  let no = (fs /. fq) +. (float_of_int t.slack /. fq) in
  let threshold = Stats.midpoint_threshold ~trials:repetitions ~yes_rate:yes ~no_rate:no in
  { q; field; copies = k; repetitions; threshold; set_size = s; yes_bound = yes; no_bound = no }

(* --- preimage search --------------------------------------------------------- *)

(* Hash rows under an Api spec using per-point power tables:
   z_i = sum_rows powers_i.(row_index * width) * P_i(content),
   y   = shift + sum_i coeffs_i * z_i   (mod q). *)
let hash_rows params t (spec : int Api.spec) =
  let q = params.q and width = t.width in
  let m = (width * width) + width in
  let powtabs =
    Array.map
      (fun a ->
        let tab = Array.make (m + 1) 1 in
        for i = 1 to m do
          tab.(i) <- tab.(i - 1) * a mod q
        done;
        tab)
      spec.Api.points
  in
  fun rows ->
    let y = ref spec.Api.shift in
    for i = 0 to Array.length powtabs - 1 do
      let pows = powtabs.(i) in
      let z = ref 0 in
      Array.iter
        (fun (idx, content) ->
          let p = Bitset.fold (fun w acc -> (acc + pows.(w + 1)) mod q) content 0 in
          z := (!z + (pows.(idx * width) * p)) mod q)
        rows;
      y := (!y + (spec.Api.coeffs.(i) * !z)) mod q
    done;
    !y

type search = params -> t -> int Api.spec -> int -> (int * int array array) option

let find_preimage params t spec target =
  let hash = hash_rows params t spec in
  Array.find_map
    (fun c -> if hash c.rows = target then Some (c.b, c.tables) else None)
    (candidates t)

(* --- messages and provers ---------------------------------------------------- *)

type challenge = { specs : int Api.spec array; targets : int array }

type commit = {
  miss : bool array;  (* broadcast *)
  b : int array;  (* broadcast *)
  tables : int array array array;  (* broadcast, one round per table *)
  root : int array;  (* broadcast *)
  spec_echo : int Api.spec array;  (* broadcast *)
  target_echo : int array;  (* broadcast *)
  parent : int array;  (* unicast *)
  dist : int array;  (* unicast *)
}

type reveal = {
  audit_echo : int array;  (* broadcast *)
  agg : int array array;  (* unicast: k inner aggregates per node *)
  audits : int array array;  (* unicast, one round per audit term *)
}

type prover = {
  name : string;
  commit : params -> t -> challenge -> commit;
  reveal : params -> t -> challenge -> commit -> int array -> reveal;
}

let prover_name p = p.name

let const n v = Array.make n v

let honest_root = 0

let commit_with (search : search) params (t : t) (ch : challenge) =
  let n = size t in
  let tree = Precomp.tree t.graph honest_root in
  let spec = ch.specs.(honest_root) and target = ch.targets.(honest_root) in
  let miss, b, tables =
    match search params t spec target with
    | Some (b, tables) -> (false, b, tables)
    | None -> (true, 0, Array.init t.tables (fun _ -> Array.init n Fun.id))
  in
  { miss = const n miss;
    b = const n b;
    tables = Array.map (const n) tables;
    root = const n honest_root;
    spec_echo = const n spec;
    target_echo = const n target;
    parent = Array.copy tree.Spanning_tree.parent;
    dist = Array.copy tree.Spanning_tree.dist
  }

(* Node v's inner API term (the sum of its rows' terms) and its audit
   terms, written to dst.(off .. off + k + audits - 1). *)
let node_terms_into params (t : t) spec audit_point tables b v dst off =
  let f = params.field and k = params.copies in
  let owned, audit_rows = t.layout tables b v in
  Array.fill dst off (k + t.audits) f.Field.zero;
  List.iter
    (fun (row, content) ->
      Array.iteri (fun i z -> dst.(off + i) <- f.Field.add dst.(off + i) z) (Api.row_term f spec ~n:t.width ~row content))
    owned;
  for j = 0 to min t.audits (Array.length audit_rows) - 1 do
    let row, content = audit_rows.(j) in
    dst.(off + k + j) <- Linear.row_hash f audit_point ~n:(size t) ~row content
  done

(* All k + audits quantities aggregate in one pass; after a miss every
   aggregate is zero. *)
let honest_reveal params (t : t) (_ch : challenge) (c : commit) audit =
  let n = size t and f = params.field and k = params.copies in
  let w = k + t.audits in
  let root = c.root.(0) in
  let audit_point = audit.(root) in
  let sums = Array.make (n * w) f.Field.zero in
  if not c.miss.(0) then begin
    let tables = Array.map (fun per_node -> per_node.(0)) c.tables in
    for v = 0 to n - 1 do
      node_terms_into params t c.spec_echo.(0) audit_point tables c.b.(0) v sums (v * w)
    done;
    Aggregation.accumulate f { Spanning_tree.root; parent = c.parent; dist = c.dist } ~k:w sums
  end;
  { audit_echo = const n audit_point;
    agg = Array.init n (fun v -> Array.sub sums (v * w) k);
    audits = Array.init t.audits (fun j -> Array.init n (fun v -> sums.((v * w) + k + j)))
  }

let honest = { name = "honest"; commit = commit_with find_preimage; reveal = honest_reveal }

(* --- execution --------------------------------------------------------------- *)

let is_perm n table =
  Array.length table = n
  && Array.for_all (Aggregation.in_range n) table
  &&
  let seen = Array.make n false in
  Array.iter (fun x -> seen.(x) <- true) table;
  Array.for_all Fun.id seen

(* One repetition inside a running network; returns per-node validity. *)
let run_repetition params (t : t) net prover =
  let n = size t in
  let f = params.field and k = params.copies in
  (* Arthur 1: spec + target candidates. *)
  let spec_bits = Api.spec_bits f ~k in
  let specs = Network.challenge net ~bits:spec_bits (fun rng -> Api.random_spec f ~k rng) in
  let targets = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  let ch = { specs; targets } in
  (* Merlin 1: commitment. *)
  let c = prover.commit params t ch in
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
  let field_corrupt = Fault.flip_int_bit ~bits:f.Field.bits in
  let spec_corrupt rng (s : int Api.spec) = { s with Api.shift = field_corrupt rng s.Api.shift } in
  let miss_bc = Network.broadcast net ~corrupt:Fault.flip_bool ~bits:1 c.miss in
  let b_bc = Network.broadcast net ~corrupt:(Fault.flip_int_bit ~bits:1) ~bits:1 c.b in
  let tables_bc =
    Array.map (Network.broadcast net ~corrupt:Fault.swap_entries ~bits:(Bits.perm n)) c.tables
  in
  let root_bc = Network.broadcast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.root in
  let spec_echo_bc = Network.broadcast net ~corrupt:spec_corrupt ~bits:spec_bits c.spec_echo in
  let target_echo_bc = Network.broadcast net ~corrupt:field_corrupt ~bits:f.Field.bits c.target_echo in
  let parent_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.parent in
  let dist_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.dist in
  (* Arthur 2: audit point. *)
  let audit = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  (* Merlin 2: aggregates. *)
  let r = prover.reveal params t ch c audit in
  let audit_echo_bc = Network.broadcast net ~corrupt:field_corrupt ~bits:f.Field.bits r.audit_echo in
  let agg_u = Network.unicast net ~corrupt:(Fault.corrupt_entry field_corrupt) ~bits:(k * f.Field.bits) r.agg in
  let audits_u = Array.map (Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits) r.audits in
  (* Local verification. A k-row of the wrong arity reads as -1, which the
     range check rejects, so a parent never indexes past a short row. *)
  let field_ok x = Aggregation.in_range params.q x in
  let claimed v j =
    if j >= k then audits_u.(j - k).(v)
    else if Array.length agg_u.(v) = k then agg_u.(v).(j)
    else -1
  in
  let shape_ok = Array.length tables_bc = t.tables && Array.length audits_u = t.audits in
  let tables_at v = Array.map (fun bc -> bc.(v)) tables_bc in
  let valid_at =
    Aggregation.verifier f ~in_field:field_ok net ~root:root_bc ~parent:parent_u ~dist:dist_u
      ~quantities:(k + t.audits) ~claimed
      ~own:(fun v dst ->
        node_terms_into params t spec_echo_bc.(v) audit_echo_bc.(v) (tables_at v) b_bc.(v) v dst 0)
      ~same:(fun u v ->
        miss_bc.(u) = miss_bc.(v) && b_bc.(u) = b_bc.(v)
        && Array.for_all (fun bc -> bc.(u) = bc.(v)) tables_bc
        && spec_echo_bc.(u) = spec_echo_bc.(v)
        && target_echo_bc.(u) = target_echo_bc.(v)
        && audit_echo_bc.(u) = audit_echo_bc.(v))
      ~local:(fun v ->
        shape_ok && (not miss_bc.(v))
        && (b_bc.(v) = 0 || b_bc.(v) = 1)
        && Array.for_all (fun bc -> is_perm n bc.(v)) tables_bc
        && field_ok target_echo_bc.(v) && field_ok audit_echo_bc.(v)
        && Api.spec_ok ~k ~in_field:field_ok spec_echo_bc.(v))
      ~at_root:(fun v ->
        f.Field.equal (Api.finalize f spec_echo_bc.(v) agg_u.(v)) target_echo_bc.(v)
        && Array.for_all (fun a -> f.Field.equal a.(v) audits_u.(0).(v)) audits_u
        && spec_echo_bc.(v) = specs.(v) && target_echo_bc.(v) = targets.(v)
        && audit_echo_bc.(v) = audit.(v))
  in
  let valid = Array.init n valid_at in
  (* Scope delivery failures to this repetition: a drop invalidates the node
     here and now, and the cleared flags leave the final Network.decide (over
     the aggregated counts) to judge only crashes. *)
  let missed = Network.take_missed net in
  Array.mapi (fun v ok -> ok && not missed.(v)) valid

(* A single repetition is the amplified run with one repetition and
   threshold 1: a node's count reaches 1 iff the repetition was valid. *)
let execute ~span ~single ?fault ?params ~seed t prover =
  Ids_obs.Obs.span span (fun () ->
      let params = match params with Some p -> p | None -> params_for ~seed t in
      let repetitions, threshold = if single then (1, 1) else (params.repetitions, params.threshold) in
      let net = Network.create ?fault ~seed t.graph in
      let counts = Array.make (size t) 0 in
      for _rep = 1 to repetitions do
        let valid = run_repetition params t net prover in
        Array.iteri (fun v ok -> if ok then counts.(v) <- counts.(v) + 1) valid
      done;
      let accepted = Network.decide net (fun v -> counts.(v) >= threshold) in
      Outcome.of_cost ~accepted ~prover:prover.name (Network.cost net))

let run_single ~span = execute ~span ~single:true

let run ~span = execute ~span ~single:false
