type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 finalizer: xor-shift multiply avalanche. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let split t =
  let s = next_int64 t in
  { state = mix s }

let key parts =
  let z =
    List.fold_left
      (fun z p -> mix (Int64.add (Int64.logxor z (Int64.of_int p)) gamma))
      0x243F6A8885A308D3L parts
  in
  Int64.to_int z

let bits t k =
  assert (k >= 0 && k <= 62);
  if k = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next_int64 t) (64 - k)) land ((1 lsl k) - 1)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the smallest power of two >= bound; 62 bits
     cover every positive int (1 lsl 62 would wrap negative). *)
  let k =
    let rec width k = if k = 62 || 1 lsl k >= bound then k else width (k + 1) in
    width 1
  in
  let rec draw () =
    let v = bits t k in
    if v < bound then v else draw ()
  in
  draw ()

let bool t = bits t 1 = 1

let float t = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. 0x1p-53

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
