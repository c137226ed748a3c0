let z95 = 1.96

let interval ?(z = z95) ~accepts ~trials () =
  if accepts < 0 || trials < 0 || accepts > trials then
    invalid_arg "Wilson.interval: need 0 <= accepts <= trials";
  if trials = 0 then (0., 1.)
  else begin
    let n = float_of_int trials in
    let p = float_of_int accepts /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let center = p +. (z2 /. (2. *. n)) in
    let half = z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) in
    (* At the extreme counts the exact endpoint is 0 (resp. 1); rounding in
       center -. half can leave ~1e-17 instead, which would exclude the rate. *)
    let lo = if accepts = 0 then 0. else Float.max 0. ((center -. half) /. denom) in
    let hi = if accepts = trials then 1. else Float.min 1. ((center +. half) /. denom) in
    (lo, hi)
  end

let width ?z ~accepts ~trials () =
  let lo, hi = interval ?z ~accepts ~trials () in
  hi -. lo
