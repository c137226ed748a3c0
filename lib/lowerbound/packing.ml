let log2_factorial k =
  let acc = ref 0. in
  for i = 2 to k do
    acc := !acc +. (log (float_of_int i) /. log 2.)
  done;
  !acc

let log2_ball_volume ~d ~r =
  if d < 1 then invalid_arg "Packing.log2_ball_volume: need d >= 1";
  (float_of_int d *. (log (4. *. r) /. log 2.)) -. log2_factorial (d + 1)

let log2_packing_bound ~d = float_of_int d *. (log 5. /. log 2.)

let packing_bound_exact ~d = Ids_bignum.Nat.pow (Ids_bignum.Nat.of_int 5) d

let log2_family_size n =
  let fn = float_of_int n in
  Float.max 0. ((fn *. (fn -. 1.) /. 2.) -. (fn *. (log fn /. log 2.)) -. fn)

let min_protocol_length n =
  let target = log2_family_size n /. (log 5. /. log 2.) in
  (* Smallest L with 2^(2^L) >= target, i.e. 2^L >= log2 target. *)
  if target <= 2. then 1
  else begin
    let needed = log target /. log 2. in
    let rec go l = if 2. ** float_of_int l >= needed then l else go (l + 1) in
    max 1 (go 1)
  end

let lower_bound_table ns = List.map (fun n -> (n, log2_family_size n, min_protocol_length n)) ns
