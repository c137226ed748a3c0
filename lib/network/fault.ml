module Rng = Ids_bignum.Rng
module Nat = Ids_bignum.Nat

type crash_mode = Crash_reject | Crash_vacuous

type spec = {
  drop : float;
  corrupt : float;
  crash : float;
  crash_mode : crash_mode;
  equivocate : bool;
}

let none = { drop = 0.; corrupt = 0.; crash = 0.; crash_mode = Crash_reject; equivocate = false }

let check_rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Fault: %s rate %g outside [0, 1]" name r)

let make ?(drop = 0.) ?(corrupt = 0.) ?(crash = 0.) ?(crash_mode = Crash_reject)
    ?(equivocate = false) () =
  check_rate "drop" drop;
  check_rate "corrupt" corrupt;
  check_rate "crash" crash;
  { drop; corrupt; crash; crash_mode; equivocate }

let drop_only rate = make ~drop:rate ()
let corrupt_only rate = make ~corrupt:rate ()
let crash_only ?(crash_mode = Crash_reject) rate = make ~crash:rate ~crash_mode ()
let equivocate_only = make ~equivocate:true ()

let is_none s = s.drop = 0. && s.corrupt = 0. && s.crash = 0. && not s.equivocate

let to_string s =
  if is_none s then "none"
  else begin
    let parts = ref [] in
    let add p = parts := p :: !parts in
    if s.equivocate then add "equivocate";
    if s.crash > 0. then begin
      (match s.crash_mode with
      | Crash_reject -> add "crash_mode=reject"
      | Crash_vacuous -> add "crash_mode=vacuous");
      add (Printf.sprintf "crash=%g" s.crash)
    end;
    if s.corrupt > 0. then add (Printf.sprintf "corrupt=%g" s.corrupt);
    if s.drop > 0. then add (Printf.sprintf "drop=%g" s.drop);
    String.concat "," !parts
  end

let of_string str =
  let fail part = invalid_arg (Printf.sprintf "Fault.of_string: cannot parse %S" part) in
  let rate part v = match float_of_string_opt v with Some f -> check_rate part f; f | None -> fail part in
  List.fold_left
    (fun s part ->
      match String.index_opt part '=' with
      | None -> (
        match String.trim part with
        | "" | "none" -> s
        | "equivocate" -> { s with equivocate = true }
        | p -> fail p)
      | Some i -> (
        let k = String.trim (String.sub part 0 i) in
        let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
        match k with
        | "drop" -> { s with drop = rate k v }
        | "corrupt" -> { s with corrupt = rate k v }
        | "crash" -> { s with crash = rate k v }
        | "crash_mode" -> (
          match v with
          | "reject" -> { s with crash_mode = Crash_reject }
          | "vacuous" -> { s with crash_mode = Crash_vacuous }
          | _ -> fail part)
        | _ -> fail part))
    none
    (String.split_on_char ',' str)

let of_env () =
  match Sys.getenv_opt "IDS_FAULT_SPEC" with
  | None | Some "" -> None
  | Some s -> Some (of_string s)

(* --- runtime state ----------------------------------------------------------- *)

(* Fault decisions never touch the execution's main generator: every decision
   comes from a fresh splitmix64 stream keyed by (trial seed, salt, round,
   node). Two consequences: (1) a zero-rate spec leaves the protocol's
   randomness bit-identical to the un-faulted path, and (2) decisions are a
   pure function of position, so faulted runs are reproducible across any
   scheduling of trials over worker domains. *)

let salt_deliver = 0x0D51
let salt_equiv = 0x0E91
let salt_crash = 0x0C0A

type t = { spec : spec; seed : int; crashed : bool array; any_crashed : bool; mutable round : int }

let create ~seed ~n spec =
  let crashed =
    Array.init n (fun v ->
        spec.crash > 0. && Rng.float (Rng.create (Rng.key [ seed; salt_crash; v ])) < spec.crash)
  in
  { spec; seed; crashed; any_crashed = Array.exists Fun.id crashed; round = 0 }

let spec t = t.spec
let crash_mode t = t.spec.crash_mode
let crashed t v = t.crashed.(v)
let any_crashed t = t.any_crashed

let next_round t =
  let r = t.round in
  t.round <- r + 1;
  r

let stream ~salt t ~round ~node = Rng.create (Rng.key [ t.seed; salt; round; node ])

type 'r delivery = Delivered of 'r | Dropped

let deliver t ~round ~node ?corrupt x =
  if t.spec.drop = 0. && t.spec.corrupt = 0. then Delivered x
  else begin
    let rng = stream ~salt:salt_deliver t ~round ~node in
    (* Both decisions are always drawn, so a message's fate at a given
       position depends only on the spec's rates, not on evaluation order. *)
    let dropped = Rng.float rng < t.spec.drop in
    let corrupted = Rng.float rng < t.spec.corrupt in
    if dropped then Dropped
    else if corrupted then
      match corrupt with Some c -> Delivered (c rng x) | None -> Delivered x
    else Delivered x
  end

let equivocation t ~round ~n =
  if (not t.spec.equivocate) || n = 0 then None
  else begin
    let rng = stream ~salt:salt_equiv t ~round ~node:0 in
    Some (Rng.int rng n, rng)
  end

(* --- corrupt hooks for the payload types the protocols use ------------------- *)

let flip_int_bit ~bits rng x = x lxor (1 lsl Rng.int rng (max 1 bits))

let flip_nat_bit ~bits rng x =
  let k = Rng.int rng (max 1 bits) in
  let b = Nat.shift_left Nat.one k in
  if Nat.is_zero (Nat.rem (Nat.shift_right x k) Nat.two) then Nat.add x b else Nat.sub x b

let flip_bool _rng b = not b

let swap_entries rng a =
  let n = Array.length a in
  if n < 2 then a
  else begin
    let a = Array.copy a in
    let i = Rng.int rng n in
    let j = (i + 1 + Rng.int rng (n - 1)) mod n in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp;
    a
  end

let corrupt_entry corrupt rng row =
  if Array.length row = 0 then row
  else begin
    let row = Array.copy row in
    let i = Rng.int rng (Array.length row) in
    row.(i) <- corrupt rng row.(i);
    row
  end
