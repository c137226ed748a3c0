type plan = {
  log_a : float;  (* upper boundary: accept H1 when llr >= log_a *)
  log_b : float;  (* lower boundary: accept H0 when llr <= log_b *)
  lr_accept : float;  (* per-accept llr increment: log (p1/p0) *)
  lr_reject : float;  (* per-reject llr increment: log ((1-p1)/(1-p0)) *)
}

type decision = Above | Below

let plan ?(alpha = 1e-3) ?(beta = 1e-3) ~p0 ~p1 () =
  if not (0. < p0 && p0 < p1 && p1 < 1.) then invalid_arg "Sprt.plan: need 0 < p0 < p1 < 1";
  if not (0. < alpha && alpha < 1. && 0. < beta && beta < 1.) then
    invalid_arg "Sprt.plan: error levels must lie in (0, 1)";
  { log_a = log ((1. -. beta) /. alpha);
    log_b = log (beta /. (1. -. alpha));
    lr_accept = log (p1 /. p0);
    lr_reject = log ((1. -. p1) /. (1. -. p0))
  }

let definition2 ?alpha ?beta () = plan ?alpha ?beta ~p0:(1. /. 3.) ~p1:(2. /. 3.) ()

let decide plan (acc : Accum.t) =
  let llr =
    (float_of_int acc.Accum.accepts *. plan.lr_accept)
    +. (float_of_int (acc.Accum.trials - acc.Accum.accepts) *. plan.lr_reject)
  in
  if llr >= plan.log_a then Some Above else if llr <= plan.log_b then Some Below else None
