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

let powers f a m =
  let t = Array.make (m + 1) f.Field.one in
  for i = 1 to m do
    t.(i) <- f.Field.mul t.(i - 1) a
  done;
  t

(* Decide rounds evaluate row hashes at each node's own copy of the
   broadcast index, which faults can make diverge across nodes: memoize one
   power table per distinct index so the honest case builds exactly one. *)
let powers_memo f m =
  let tbl = Hashtbl.create 4 in
  fun a ->
    match Hashtbl.find_opt tbl a with
    | Some t -> t
    | None ->
      let t = powers f a m in
      Hashtbl.add tbl a t;
      t

let row_poly_pow f ~powers s =
  Bitset.fold (fun w acc -> f.Field.add acc powers.(w + 1)) s f.Field.zero

let row_hash_pow f ~powers ~n ~row s =
  if row < 0 || row >= n then invalid_arg "Linear.row_hash_pow: row out of range";
  f.Field.mul powers.(row * n) (row_poly_pow f ~powers s)

(* Two short tables instead of one of length n² + n + 1: a^(row·n) is
   (a^n)^row, read from the second. Shared by every row of one index. *)
let row_tables f a ~n =
  let lo = powers f a n in
  (lo, powers f lo.(n) (n - 1))

let graph_hash_pow f ~powers g =
  let n = Graph.n g in
  let acc = ref f.Field.zero in
  for v = 0 to n - 1 do
    acc := f.Field.add !acc (row_hash_pow f ~powers ~n ~row:v (Graph.closed_neighborhood g v))
  done;
  !acc

let permuted_graph_hash_pow f ~powers g rho =
  let n = Graph.n g in
  let acc = ref f.Field.zero in
  for v = 0 to n - 1 do
    acc :=
      f.Field.add !acc
        (row_hash_pow f ~powers ~n ~row:(Perm.apply rho v)
           (Perm.apply_set rho (Graph.closed_neighborhood g v)))
  done;
  !acc
