module Bitset = Ids_graph.Bitset
module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm

let row_poly f a s = Bitset.fold (fun w acc -> f.Field.add acc (f.Field.pow_int a (w + 1))) s f.Field.zero

let row_hash f a ~n ~row s =
  if row < 0 || row >= n then invalid_arg "Linear.row_hash: row out of range";
  f.Field.mul (f.Field.pow_int a (row * n)) (row_poly f a s)

let matrix_hash f a ~n rows =
  List.fold_left (fun acc (v, s) -> f.Field.add acc (row_hash f a ~n ~row:v s)) f.Field.zero rows

let graph_hash f a g =
  let n = Graph.n g in
  matrix_hash f a ~n (List.init n (fun v -> (v, Graph.closed_neighborhood g v)))

let permuted_graph_hash f a g rho =
  let n = Graph.n g in
  matrix_hash f a ~n
    (List.init n (fun v -> (Perm.apply rho v, Perm.apply_set rho (Graph.closed_neighborhood g v))))

let collision_bound ~n ~p = float_of_int ((n * n) + n) /. float_of_int p

let powers_into ?(lo = 0) ?hi f a t =
  let hi = match hi with Some hi -> hi | None -> Array.length t in
  for i = lo + 1 to hi - 1 do
    t.(i) <- f.Field.mul t.(i - 1) a
  done

let powers f a m =
  let t = Array.make (m + 1) f.Field.one in
  powers_into f a t;
  t

type 'a tables = 'a array * 'a array

(* Two short tables instead of one of length n² + n + 1: a^(row·n) is
   (a^n)^row, read from the second. Shared by every row of one index. *)
let row_tables f a ~n =
  let lo = powers f a n in
  (lo, powers f lo.(n) (n - 1))

(* Decide rounds evaluate row hashes at each node's own copy of the
   broadcast index, which faults can make diverge across nodes: memoize the
   tables per distinct index so the honest case builds one pair. *)
let row_tables_memo f ~n =
  let tbl = Hashtbl.create 4 in
  fun a ->
    match Hashtbl.find_opt tbl a with
    | Some t -> t
    | None ->
      let t = row_tables f a ~n in
      Hashtbl.add tbl a t;
      t

let row_hash_tables f ((lo, hi) : _ tables) ~row s =
  if row < 0 || row >= Array.length hi then invalid_arg "Linear.row_hash_tables: row out of range";
  f.Field.mul hi.(row) (Bitset.fold (fun w acc -> f.Field.add acc lo.(w + 1)) s f.Field.zero)

(* Row v with content N[v], the open neighbourhood folded onto v's own
   entry: the same field element as over Graph.closed_neighborhood (the
   sum is exact), minus a set copy and sorted insert per call. *)
let node_hash_tables f ((lo, hi) : _ tables) g v =
  if Array.length lo <> Graph.n g + 1 then invalid_arg "Linear.node_hash_tables: tables built for another n";
  f.Field.mul hi.(v) (Bitset.fold (fun w acc -> f.Field.add acc lo.(w + 1)) (Graph.neighbors g v) lo.(v + 1))

let graph_hash_tables f tabs g =
  let acc = ref f.Field.zero in
  for v = 0 to Graph.n g - 1 do
    acc := f.Field.add !acc (node_hash_tables f tabs g v)
  done;
  !acc

(* A permutation is injective, so the image row's content sums over the
   preimages: no image set is built. *)
let permuted_node_hash_tables f ((lo, hi) : _ tables) g rho v =
  if Array.length lo <> Graph.n g + 1 then
    invalid_arg "Linear.permuted_node_hash_tables: tables built for another n";
  let image w = lo.(Perm.apply rho w + 1) in
  f.Field.mul hi.(Perm.apply rho v)
    (Bitset.fold (fun w acc -> f.Field.add acc (image w)) (Graph.neighbors g v) (image v))

(* An arbitrary map may send two neighbours to one vertex, so the image is
   built as a set: each image vertex counts once, as in rho(N[v]). *)
let mapped_node_hash_tables f tabs g ~map v =
  let image = Bitset.create (Graph.n g) in
  Bitset.iter (fun u -> Bitset.add image map.(u)) (Graph.neighbors g v);
  Bitset.add image map.(v);
  row_hash_tables f tabs ~row:map.(v) image

let permuted_graph_hash_tables f tabs g rho =
  let acc = ref f.Field.zero in
  for v = 0 to Graph.n g - 1 do
    acc := f.Field.add !acc (permuted_node_hash_tables f tabs g rho v)
  done;
  !acc
