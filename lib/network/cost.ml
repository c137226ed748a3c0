(* A round that charges every node the same bits is one add to [all_to] or
   [all_from]; the arrays hold only the per-node charges on top. *)
type t = { to_prover : int array; from_prover : int array; mutable all_to : int; mutable all_from : int }

let create n =
  if n < 0 then invalid_arg "Cost.create: negative size";
  { to_prover = Array.make n 0; from_prover = Array.make n 0; all_to = 0; all_from = 0 }

let n t = Array.length t.to_prover

let charge_to_prover t v bits =
  if bits < 0 then invalid_arg "Cost.charge_to_prover: negative bits";
  t.to_prover.(v) <- t.to_prover.(v) + bits

let charge_from_prover t v bits =
  if bits < 0 then invalid_arg "Cost.charge_from_prover: negative bits";
  t.from_prover.(v) <- t.from_prover.(v) + bits

let charge_all_to_prover t bits =
  if bits < 0 then invalid_arg "Cost.charge_to_prover: negative bits";
  t.all_to <- t.all_to + bits

let charge_all_from_prover t bits =
  if bits < 0 then invalid_arg "Cost.charge_from_prover: negative bits";
  t.all_from <- t.all_from + bits

let to_prover t v = t.to_prover.(v) + t.all_to
let from_prover t v = t.from_prover.(v) + t.all_from

let node_total t v = to_prover t v + from_prover t v

(* On an empty ledger the uniform charges reach no node. *)
let max_per_node t =
  if n t = 0 then 0
  else begin
    let m = ref 0 in
    for v = 0 to n t - 1 do
      m := Int.max !m (t.to_prover.(v) + t.from_prover.(v))
    done;
    !m + t.all_to + t.all_from
  end

let max_from_prover t = if n t = 0 then 0 else Array.fold_left Int.max 0 t.from_prover + t.all_from

let total t =
  Array.fold_left ( + ) 0 t.to_prover
  + Array.fold_left ( + ) 0 t.from_prover
  + (n t * (t.all_to + t.all_from))

let pp fmt t =
  Format.fprintf fmt "cost(max/node=%d bits, total=%d bits)" (max_per_node t) (total t)
