module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Field = Ids_hash.Field

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
          sums.((p * k) + i) <- f.Field.add sums.((p * k) + i) sums.((v * k) + i)
        done)
    (Spanning_tree.leaves_first tree)

let honest_sums f tree ~term =
  let sums = Array.init (Array.length tree.Spanning_tree.parent) term in
  accumulate f tree ~k:1 sums;
  sums

(* The Lemma 3.3 check, once. [sums] is this instance's scratch: [own]
   writes the node's terms into it, each child's claimed values are added
   on, and the result must equal the node's own claims. Every check reads
   only what the checks before it have validated. *)
let verifier f ~in_field net ~root ~parent ~dist ~quantities ~claimed ~own ~same ~local ~at_root =
  let g = Network.graph net in
  let n = Graph.n g in
  let sums = Array.make quantities f.Field.zero in
  let same u v = root.(u) = root.(v) && same u v in
  let agree = Network.neighbors_agree net same in
  let rec claims_in_field v j = j >= quantities || (in_field (claimed v j) && claims_in_field v (j + 1)) in
  (* The node whose children are being added: the callback is built once
     per instance, so a check allocates nothing of its own. *)
  let node = ref 0 in
  let add_child u =
    let v = !node in
    if parent.(u) = v && u <> v then
      for j = 0 to quantities - 1 do
        sums.(j) <- f.Field.add sums.(j) (claimed u j)
      done
  in
  let rec equations_hold v j =
    j >= quantities || (f.Field.equal (claimed v j) sums.(j) && equations_hold v (j + 1))
  in
  fun v ->
    agree v
    && local v
    && in_range n root.(v)
    && tree_check g ~root:root.(v) ~parent ~dist v
    && claims_in_field v 0
    && begin
      own v sums;
      node := v;
      Bitset.iter add_child (Graph.neighbors g v);
      equations_hold v 0
    end
    && (v <> root.(v) || at_root v)
