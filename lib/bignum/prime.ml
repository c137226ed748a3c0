module Obs = Ids_obs.Obs

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97 ]

let is_prime_int n =
  if n < 2 then false
  else if n <= Sieve.limit then Sieve.is_prime n
  else if n mod 2 = 0 then false
  else begin
    let rec go d = if d * d > n then true else if n mod d = 0 then false else go (d + 2) in
    go 3
  end

(* One Miller-Rabin round: n - 1 = d * 2^s with d odd; witness a. The context
   carries the Montgomery precomputation for n (always odd here: even inputs
   are rejected by the small-prime filter before any round runs). *)
let miller_rabin_round ctx d s a =
  let n = Modarith.ctx_modulus ctx in
  let x = Modarith.ctx_pow ctx a d in
  let n_minus_1 = Nat.sub n Nat.one in
  if Nat.is_one x || Nat.equal x n_minus_1 then true
  else begin
    let rec squaring x i =
      if i >= s - 1 then false
      else
        let x = Modarith.ctx_mul ctx x x in
        if Nat.equal x n_minus_1 then true else squaring x (i + 1)
    in
    squaring x 0
  end

(* --- reference pipeline ------------------------------------------------- *)

(* The pre-sieve implementation, kept verbatim: the oracle that the gated
   pipeline below must match draw for draw (bench/setup times against it,
   tests pin equality). *)

let is_prime_reference ?(rounds = 32) rng n =
  match Nat.to_int_opt n with
  | Some k when k < 100 * 100 -> is_prime_int k
  | _ ->
    let divisible_by_small =
      List.exists (fun p -> Nat.is_zero (Nat.rem n (Nat.of_int p))) small_primes
    in
    if divisible_by_small then false
    else begin
      let n_minus_1 = Nat.sub n Nat.one in
      let rec split d s = if Nat.is_zero (Nat.rem d Nat.two) then split (Nat.shift_right d 1) (s + 1) else (d, s) in
      let d, s = split n_minus_1 0 in
      let ctx = Modarith.ctx n in
      let rec rounds_left k =
        if k = 0 then true
        else begin
          let a = Nat.add Nat.two (Nat.random_below rng (Nat.sub n (Nat.of_int 3))) in
          if miller_rabin_round ctx d s a then rounds_left (k - 1) else false
        end
      in
      rounds_left rounds
    end

let random_prime_in_reference rng lo hi =
  if Nat.compare lo hi > 0 then invalid_arg "Prime.random_prime_in: empty range";
  let max_tries = 10_000 * Nat.bit_length hi in
  let rec search tries =
    if tries = 0 then failwith "Prime.random_prime_in: no prime found"
    else begin
      let c = Nat.random_in rng lo hi in
      let c = if Nat.is_zero (Nat.rem c Nat.two) then Nat.add c Nat.one else c in
      if Nat.compare c hi <= 0 && is_prime_reference rng c then c else search (tries - 1)
    end
  in
  search max_tries

(* --- sieve-gated pipeline ------------------------------------------------ *)

(* The contract: same rng draws, same decisions as the reference, candidate
   by candidate, so [random_prime_in] returns the same prime for the same
   seed and leaves the rng at the same position. Per candidate class:

   - smallest trial-prime factor q <= 97: rejected with zero draws, exactly
     like the reference's 25-prime filter.
   - smallest trial-prime factor q in (97, 4096]: the reference would run
     full Miller-Rabin rounds. We draw each base identically, then decide
     the round by its mod-q projection: since q | n, a round that passes in
     Z_n forces a^d = 1 or a^(d 2^i) = -1 (mod q), so if neither holds mod q
     (an O(s) int computation), the round certainly fails — same decision,
     same single draw. In the ~(s+2)/q of cases where the projection is
     inconclusive, fall back to the full bignum round.
   - no trial-prime factor, n < trial_bound^2: trial division has proved n
     prime. Miller-Rabin never rejects a prime, so the reference would run
     [rounds] passing rounds, one base draw each — burn the same draws (no
     exponentiations) and accept.
   - no trial-prime factor, n < 2^31 otherwise: run the true rounds in
     native-int arithmetic (operands < 2^31 keep products in 62 bits);
     identical draws and decisions, ~10-50x cheaper than bignum rounds.
   - otherwise: the reference bignum rounds, unchanged. *)

let c_candidates = Obs.Counter.make "prime.candidates"
let c_sieve_reject = Obs.Counter.make "prime.sieve_reject"
let c_trial_proved = Obs.Counter.make "prime.trial_proved"
let c_mr_rounds = Obs.Counter.make "prime.mr_rounds"
let c_cert_rounds = Obs.Counter.make "prime.cert_rounds"

(* Exactly the reference's base draw. *)
let draw_base rng n = Nat.add Nat.two (Nat.random_below rng (Nat.sub n (Nat.of_int 3)))

(* The same draw for a native modulus k, without a limb array per base. *)
let draw_base_native rng k = 2 + Nat.random_below_int rng (k - 3)

(* Square-and-multiply for native moduli < 2^31 (products stay < 2^62). *)
let powmod_native a e m =
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then acc * b mod m else acc) (b * b mod m) (e lsr 1)
  in
  go 1 (a mod m) e

let rec split_int d s = if d land 1 = 0 then split_int (d lsr 1) (s + 1) else (d, s)

(* A native-arithmetic Miller-Rabin round: the same decision procedure as
   {!miller_rabin_round} on the same values, for moduli < 2^31. *)
let mr_round_native k d s a =
  let x = powmod_native a d k in
  if x = 1 || x = k - 1 then true
  else begin
    let rec squaring x i =
      if i >= s - 1 then false
      else begin
        let x = x * x mod k in
        if x = k - 1 then true else squaring x (i + 1)
      end
    in
    squaring x 0
  end

(* Scan for the smallest trial-prime factor of native k; [`Proved_prime]
   means no prime <= sqrt k divides k. *)
let rec native_factor k i =
  if i >= Array.length Sieve.trial_primes then `No_factor
  else begin
    let p = Sieve.trial_primes.(i) in
    if p * p > k then `Proved_prime
    else if k mod p = 0 then `Factor p
    else native_factor k (i + 1)
  end

let is_prime_native ~rounds rng k =
  match native_factor k 0 with
  | `Factor p when p <= 97 ->
    Obs.Counter.add c_sieve_reject 1;
    false
  | `Proved_prime ->
    (* The reference would run [rounds] passing rounds; burn its draws. *)
    Obs.Counter.add c_trial_proved 1;
    for _ = 1 to rounds do
      ignore (draw_base_native rng k)
    done;
    true
  | `Factor _ | `No_factor ->
    let d, s = split_int (k - 1) 0 in
    let rec rounds_left r =
      if r = 0 then true
      else begin
        let a = draw_base_native rng k in
        Obs.Counter.add c_mr_rounds 1;
        if mr_round_native k d s a then rounds_left (r - 1) else false
      end
    in
    rounds_left rounds

(* The bignum scan stops at primes <= 1024 rather than the full trial bound:
   past that point a batch's hit probability (sum of 1/q over its primes)
   times the cost of the avoided Miller-Rabin round drops below the cost of
   the batch's [rem_int] + residue scan. Candidates whose smallest factor lies above
   the cap simply take the full-round path — the same rounds the reference
   runs, so the cap is a pure tuning knob with no effect on decisions. *)
let nat_scan_bound = 1024

let nat_batch_count =
  let rec go i =
    if
      i >= Array.length Sieve.batches
      || Sieve.trial_primes.(Sieve.batches.(i).Sieve.lo) > nat_scan_bound
    then i
    else go (i + 1)
  in
  go 0

(* Smallest trial-prime factor (up to [nat_scan_bound]) of a bignum: one
   [Nat.rem_int] per batch of primes folds the whole candidate down to a
   native residue, then each prime in the batch is a single int [mod]
   (cheaper than a gcd against the batch product at these batch sizes).
   Batches are ascending, so the first hit is the smallest factor. *)
let nat_factor n =
  let limbs = Nat.to_limbs n in
  if Array.length limbs > 0 && limbs.(0) land 1 = 0 then Some 2
  else begin
    let nb = nat_batch_count in
    let rec scan i =
      if i >= nb then None
      else begin
        let b = Sieve.batches.(i) in
        let r = Nat.rem_int n b.Sieve.product in
        let rec first j =
          if j > b.Sieve.hi then scan (i + 1)
          else if r mod Sieve.trial_primes.(j) = 0 then Some Sieve.trial_primes.(j)
          else first (j + 1)
        in
        first b.Sieve.lo
      end
    in
    scan 0
  end

let is_prime_nat ~rounds rng n =
  let factor = nat_factor n in
  match factor with
  | Some q when q <= 97 ->
    Obs.Counter.add c_sieve_reject 1;
    false
  | _ ->
    let n_minus_1 = Nat.sub n Nat.one in
    let rec split d s = if Nat.is_zero (Nat.rem d Nat.two) then split (Nat.shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n_minus_1 0 in
    (* Only the full-round fallback needs the (Montgomery) context. *)
    let ctx = lazy (Modarith.ctx n) in
    let full_round a =
      Obs.Counter.add c_mr_rounds 1;
      miller_rabin_round (Lazy.force ctx) d s a
    in
    let round =
      match factor with
      | Some q ->
        (* q | n with 97 < q <= trial_bound: decide rounds by their mod-q
           projection, falling back to the full round when inconclusive. *)
        let d_q = Nat.rem_int d (q - 1) in
        fun a ->
          let aq = Nat.rem_int a q in
          let x0 = if aq = 0 then 0 else powmod_native aq d_q q in
          let rec chain x i = i < s && (x = q - 1 || chain (x * x mod q) (i + 1)) in
          if x0 = 1 || chain x0 0 then full_round a
          else begin
            Obs.Counter.add c_cert_rounds 1;
            false
          end
      | None -> full_round
    in
    let rec rounds_left r =
      if r = 0 then true
      else begin
        let a = draw_base rng n in
        if round a then rounds_left (r - 1) else false
      end
    in
    rounds_left rounds

let is_prime ?(rounds = 32) rng n =
  match Nat.to_int_opt n with
  | Some k when k < 100 * 100 -> is_prime_int k
  | Some k when k < 1 lsl 31 -> is_prime_native ~rounds rng k
  | _ -> is_prime_nat ~rounds rng n

let random_prime_in rng lo hi =
  if Nat.compare lo hi > 0 then invalid_arg "Prime.random_prime_in: empty range";
  let max_tries = 10_000 * Nat.bit_length hi in
  let rec search tries =
    if tries = 0 then failwith "Prime.random_prime_in: no prime found"
    else begin
      let c = Nat.random_in rng lo hi in
      (* Force the candidate odd (primes 2 below [lo] are irrelevant at the
         magnitudes the protocols use). *)
      let c = if Nat.is_zero (Nat.rem c Nat.two) then Nat.add c Nat.one else c in
      Obs.Counter.add c_candidates 1;
      if Nat.compare c hi <= 0 && is_prime rng c then c else search (tries - 1)
    end
  in
  search max_tries

let random_prime_in_int rng lo hi =
  Nat.to_int (random_prime_in rng (Nat.of_int lo) (Nat.of_int hi))
