type t = { to_prover : int array; from_prover : int array }

let create n =
  if n < 0 then invalid_arg "Cost.create: negative size";
  { to_prover = Array.make n 0; from_prover = Array.make n 0 }

let n t = Array.length t.to_prover

let charge_to_prover t v bits =
  if bits < 0 then invalid_arg "Cost.charge_to_prover: negative bits";
  t.to_prover.(v) <- t.to_prover.(v) + bits

let charge_from_prover t v bits =
  if bits < 0 then invalid_arg "Cost.charge_from_prover: negative bits";
  t.from_prover.(v) <- t.from_prover.(v) + bits

let charge_all_from_prover t bits =
  Array.iteri (fun v _ -> charge_from_prover t v bits) t.from_prover

let to_prover t v = t.to_prover.(v)
let from_prover t v = t.from_prover.(v)

let node_total t v = t.to_prover.(v) + t.from_prover.(v)

let max_per_node t =
  let m = ref 0 in
  for v = 0 to n t - 1 do
    if node_total t v > !m then m := node_total t v
  done;
  !m

let max_from_prover t = Array.fold_left max 0 t.from_prover

let total t = Array.fold_left ( + ) 0 t.to_prover + Array.fold_left ( + ) 0 t.from_prover

let pp fmt t =
  Format.fprintf fmt "cost(max/node=%d bits, total=%d bits)" (max_per_node t) (total t)
