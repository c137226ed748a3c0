module Graph = Ids_graph.Graph

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

let tables f spec ~n = Array.map (fun a -> Linear.row_tables f a ~n) spec.points

(* Keyed by the points alone: faults may corrupt a delivered spec's other
   fields, and an unfaulted run shares one points array across all nodes,
   so the physical-equality probe answers every lookup but the first. *)
let tables_memo f ~n =
  let tbl = Hashtbl.create 4 and last = ref None in
  fun spec ->
    match !last with
    | Some (points, t) when points == spec.points -> t
    | _ ->
      let t =
        match Hashtbl.find_opt tbl spec.points with
        | Some t -> t
        | None ->
          let t = tables f spec ~n in
          Hashtbl.add tbl spec.points t;
          t
      in
      last := Some (spec.points, t);
      t

let node_term_into f tabs g v dst off =
  for i = 0 to Array.length tabs - 1 do
    dst.(off + i) <- Linear.node_hash_tables f tabs.(i) g v
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
