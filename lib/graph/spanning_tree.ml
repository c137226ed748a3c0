type t = { root : int; parent : int array; dist : int array }

let bfs g root =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Spanning_tree.bfs: root out of range";
  let parent = Array.make n (-1) and dist = Array.make n (-1) in
  parent.(root) <- root;
  dist.(root) <- 0;
  (* FIFO over an int array: every vertex is enqueued at most once, so n
     slots suffice and [queue.(head .. tail - 1)] is the frontier. *)
  let queue = Array.make n 0 and head = ref 0 and tail = ref 1 in
  queue.(0) <- root;
  (* The callback is built once and reads the vertex being expanded from
     a cell, so the loop allocates nothing per vertex. *)
  let v = ref root in
  let visit u =
    if dist.(u) < 0 then begin
      dist.(u) <- dist.(!v) + 1;
      parent.(u) <- !v;
      queue.(!tail) <- u;
      incr tail
    end
  in
  while !head < !tail do
    v := queue.(!head);
    incr head;
    Bitset.iter visit (Graph.neighbors g !v)
  done;
  if !tail < n then invalid_arg "Spanning_tree.bfs: graph not connected";
  { root; parent; dist }

(* One bucketing pass: children.(v) lists v's tree children ascending. The
   per-vertex [children] below scans all n parents, which is fine for one
   query but O(n²) summed over the tree — every scale-path consumer
   (honest aggregation at n = 10⁶) goes through this index instead. *)
let children_index t =
  let n = Array.length t.parent in
  let count = Array.make n 0 in
  for u = 0 to n - 1 do
    if u <> t.root && t.parent.(u) >= 0 && t.parent.(u) < n then
      count.(t.parent.(u)) <- count.(t.parent.(u)) + 1
  done;
  let out = Array.init n (fun v -> Array.make count.(v) 0) in
  let fill = Array.make n 0 in
  for u = 0 to n - 1 do
    if u <> t.root && t.parent.(u) >= 0 && t.parent.(u) < n then begin
      let p = t.parent.(u) in
      out.(p).(fill.(p)) <- u;
      fill.(p) <- fill.(p) + 1
    end
  done;
  out

(* Counting sort on the distance label: deepest bucket first, ascending
   vertex order within a bucket. *)
let leaves_first t =
  let n = Array.length t.dist in
  let count = Array.make (n + 1) 0 in
  Array.iter
    (fun d ->
      if d < 0 || d >= n then invalid_arg "Spanning_tree.leaves_first: distance out of range";
      count.(d) <- count.(d) + 1)
    t.dist;
  (* Suffix sums: count.(d + 1) is now the number of vertices deeper than
     d, which is where bucket d starts; it then serves as its cursor. *)
  for d = n - 1 downto 0 do
    count.(d) <- count.(d) + count.(d + 1)
  done;
  let order = Array.make n 0 in
  Array.iteri
    (fun v d ->
      let slot = count.(d + 1) in
      order.(slot) <- v;
      count.(d + 1) <- slot + 1)
    t.dist;
  order

let children t v =
  let acc = ref [] in
  for u = Array.length t.parent - 1 downto 0 do
    if u <> t.root && t.parent.(u) = v then acc := u :: !acc
  done;
  !acc

let subtree t v =
  (* Explicit stack over the children index: linear, and safe at depths
     (million-vertex paths) where the naive recursion would overflow. *)
  let index = children_index t in
  let acc = ref [] in
  let stack = Stack.create () in
  Stack.push v stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    acc := u :: !acc;
    Array.iter (fun c -> Stack.push c stack) index.(u)
  done;
  List.sort Stdlib.compare !acc

let is_valid g t =
  let n = Graph.n g in
  Array.length t.parent = n
  && Array.length t.dist = n
  && t.root >= 0
  && t.root < n
  && t.dist.(t.root) = 0
  && t.parent.(t.root) = t.root
  &&
  let ok = ref true in
  for v = 0 to n - 1 do
    if v <> t.root then
      if not (Graph.has_edge g v t.parent.(v)) || t.dist.(v) <> t.dist.(t.parent.(v)) + 1 then ok := false
  done;
  (* Reachability count via the children index — no list materialization. *)
  !ok
  &&
  let index = children_index t in
  let reached = ref 0 in
  let stack = Stack.create () in
  Stack.push t.root stack;
  while not (Stack.is_empty stack) do
    let u = Stack.pop stack in
    incr reached;
    Array.iter (fun c -> Stack.push c stack) index.(u)
  done;
  !reached = n
