module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Scheduler = Ids_engine.Scheduler

type 'a spec = { points : 'a array; coeffs : 'a array; shift : 'a }

let default_copies = 3

let random_spec f ~k rng =
  if k < 1 then invalid_arg "Api.random_spec: need k >= 1";
  { points = Array.init k (fun _ -> f.Field.random rng);
    coeffs = Array.init k (fun _ -> f.Field.random rng);
    shift = f.Field.random rng
  }

let spec_bits f ~k = ((2 * k) + 1) * f.Field.bits

let spec_ok ~k ~in_field spec =
  Array.length spec.points = k
  && Array.length spec.coeffs = k
  && Array.for_all in_field spec.points
  && Array.for_all in_field spec.coeffs
  && in_field spec.shift

let row_term f spec ~n ~row s = Array.map (fun a -> Linear.row_hash f a ~n ~row s) spec.points

type 'a tables = 'a Linear.tables array

(* 2k power chains: copy i's [lo] is a_i^0 .. a_i^n, its [hi] the powers
   of a_i^n. Each chain is cut at the node-range bounds, so the pool
   balances short tasks rather than 2k long ones. A segment starts from
   pow_int of its chain's base at its first index (the same canonical
   field element the chain reaches) and multiplies on, so no segment waits
   for another. The caller allocates every chain and the tasks only fill
   them, so no worker domain allocates a large block. *)
let tables ?(domains = 1) f spec ~n =
  let k = Array.length spec.points in
  let base = Array.init (2 * k) (fun j -> let a = spec.points.(j / 2) in if j land 1 = 0 then a else f.Field.pow_int a n) in
  let chains = Array.init (2 * k) (fun j -> Array.make (if j land 1 = 0 then n + 1 else n) f.Field.one) in
  let segs = Scheduler.ranges ~domains ~n:(n + 1) in
  let m = Array.length segs in
  ignore
    (Scheduler.map_range ~domains ~lo:0 ~hi:(2 * k * m) (fun task ->
         let j = task / m and lo, hi = segs.(task mod m) in
         let c = chains.(j) in
         let hi = Int.min hi (Array.length c) in
         if lo < hi then begin
           c.(lo) <- f.Field.pow_int base.(j) lo;
           Linear.powers_into ~lo ~hi f base.(j) c
         end));
  Array.init k (fun i -> (chains.(2 * i), chains.((2 * i) + 1)))

(* Keyed by the points alone: faults may corrupt a delivered spec's other
   fields. An unfaulted run shares one points array across all nodes and
   the prover, so the physical-equality probe on the first entry answers
   nearly every lookup. *)
type 'a memo = { tbl : ('a array, 'a tables) Hashtbl.t; mutable first : ('a array * 'a tables) option }

let memo () = { tbl = Hashtbl.create 4; first = None }

let find memo points =
  match memo.first with
  | Some (p, t) when p == points -> Some t
  | _ -> Hashtbl.find_opt memo.tbl points

let memo_tables ?domains memo f spec ~n =
  match find memo spec.points with
  | Some t -> t
  | None ->
    let t = tables ?domains f spec ~n in
    Hashtbl.add memo.tbl spec.points t;
    if memo.first = None then memo.first <- Some (spec.points, t);
    t

(* A run of physically equal specs (every node of an unfaulted run) is
   checked and resolved once, and the lookup answers the first valid spec
   by one physical comparison. *)
let tables_for ?domains memo f ~n ~valid specs =
  let first = ref None in
  Array.iteri
    (fun v spec ->
      if (v = 0 || spec != specs.(v - 1)) && valid spec then begin
        let t = memo_tables ?domains memo f spec ~n in
        if !first = None then first := Some (spec, Some t)
      end)
    specs;
  let first = !first in
  fun v ->
    let spec = specs.(v) in
    match first with
    | Some (s, t) when s == spec -> t
    | _ -> if valid spec then find memo spec.points else None

(* Linear.node_hash_tables for all k copies in one pass over the row, in
   the same order of field operations. The neighbour callback is built
   once per [node_term_into f] and reads the tables, the destination and
   the offset from cells set per node, so a node allocates nothing. In a
   split phase that matters beyond the allocation: every minor collection
   stops all domains until the slowest one arrives. *)
let node_term_into f =
  let tabs = ref [||] and dst = ref [||] and off = ref 0 in
  let add w =
    let t = !tabs and d = !dst and o = !off in
    for i = 0 to Array.length t - 1 do
      d.(o + i) <- f.Field.add d.(o + i) (fst t.(i)).(w + 1)
    done
  in
  fun t g v d o ->
    let row = Graph.neighbors g v and n = Graph.n g in
    for i = 0 to Array.length t - 1 do
      let lo, _ = t.(i) in
      if Array.length lo <> n + 1 then invalid_arg "Api.node_term_into: tables built for another n";
      d.(o + i) <- lo.(v + 1)
    done;
    tabs := t;
    dst := d;
    off := o;
    Bitset.iter add row;
    for i = 0 to Array.length t - 1 do
      d.(o + i) <- f.Field.mul (snd t.(i)).(v) d.(o + i)
    done

let combine f x y =
  if Array.length x <> Array.length y then invalid_arg "Api.combine: arity mismatch";
  Array.mapi (fun i xi -> f.Field.add xi y.(i)) x

let zero_term f ~k = Array.make k f.Field.zero

let finalize f spec z =
  if Array.length z <> Array.length spec.coeffs then invalid_arg "Api.finalize: arity mismatch";
  let acc = ref spec.shift in
  Array.iteri (fun i zi -> acc := f.Field.add !acc (f.Field.mul spec.coeffs.(i) zi)) z;
  !acc

let hash_graph f spec g =
  let n = Graph.n g in
  let z = ref (zero_term f ~k:(Array.length spec.points)) in
  for v = 0 to n - 1 do
    z := combine f !z (row_term f spec ~n ~row:v (Graph.closed_neighborhood g v))
  done;
  finalize f spec !z

let epsilon _f ~n ~k ~q =
  let m = float_of_int ((n * n) + n) in
  q *. ((m /. q) ** float_of_int k)
