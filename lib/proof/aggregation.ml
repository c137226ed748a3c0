module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Spanning_tree = Ids_graph.Spanning_tree

let in_range n x = x >= 0 && x < n

let tree_check g ~root ~parent ~dist v =
  let n = Graph.n g in
  in_range n parent.(v)
  && in_range n dist.(v)
  &&
  if v = root then dist.(v) = 0 && parent.(v) = v
  else Graph.has_edge g v parent.(v) && dist.(parent.(v)) = dist.(v) - 1

let children g ~parent v =
  Bitset.fold (fun u acc -> if parent.(u) = v && u <> v then u :: acc else acc) (Graph.neighbors g v) []

let subtree_equation f ~own ~claimed ~children v =
  let expected = List.fold_left (fun acc u -> f.Ids_hash.Field.add acc claimed.(u)) own children in
  f.Ids_hash.Field.equal claimed.(v) expected

(* Leaves first, each vertex pushes its finished k-vector into its
   parent's slot. The labelled root, and a vertex whose parent label is
   itself or out of range, push nothing. Field addition is exact, so the
   order children arrive in cannot change a sum. *)
let accumulate f tree ~k sums =
  let parent = tree.Spanning_tree.parent and root = tree.Spanning_tree.root in
  let n = Array.length parent in
  if Array.length sums <> n * k then invalid_arg "Aggregation.accumulate: need n * k slots";
  Array.iter
    (fun v ->
      let p = parent.(v) in
      if v <> root && p <> v && in_range n p then
        for i = 0 to k - 1 do
          sums.((p * k) + i) <- f.Ids_hash.Field.add sums.((p * k) + i) sums.((v * k) + i)
        done)
    (Spanning_tree.leaves_first tree)

let honest_sums f tree ~term =
  let sums = Array.init (Array.length tree.Spanning_tree.parent) term in
  accumulate f tree ~k:1 sums;
  sums
