module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm
module Family = Ids_graph.Family
module Fault = Ids_network.Fault
module Field = Ids_hash.Field
module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng
module Search = Ids_engine.Search

type protocol = Sym_dmam | Sym_dam | Dsym | Gni

let protocol_label = function
  | Sym_dmam -> "sym_dmam"
  | Sym_dam -> "sym_dam"
  | Dsym -> "dsym"
  | Gni -> "gni"

let protocols = [ Sym_dmam; Sym_dam; Dsym; Gni ]

let protocol_of_label s = List.find_opt (fun p -> protocol_label p = s) protocols

let axis_names = function
  | Sym_dmam -> [| "perm"; "split"; "sums"; "echo"; "fault" |]
  | Sym_dam -> [| "perm"; "sums"; "echo"; "fault" |]
  | Dsym -> [| "perm"; "root"; "sums"; "echo"; "fault" |]
  | Gni -> [| "commit"; "reveal"; "fault" |]

let sums_levels = [| "consistent"; "forge-root-b"; "offset-b" |]
let echo_levels = [| "root"; "skew" |]
let fault_levels = [| "none"; "equivocate"; "crash-vacuous" |]

let levels = function
  | Sym_dmam ->
    [| [| "fallback"; "random"; "identity"; "rotation" |];
       [| "none"; "root" |];
       sums_levels; echo_levels; fault_levels
    |]
  | Sym_dam ->
    [| [| "search"; "fallback"; "random"; "identity" |]; sums_levels; echo_levels; fault_levels |]
  | Dsym -> [| [| "sigma"; "swapped" |]; [| "zero"; "one" |]; sums_levels; echo_levels; fault_levels |]
  | Gni ->
    [| [| "search"; "deny-identity"; "deny-random"; "identity-always" |];
       [| "honest"; "patch-root" |];
       fault_levels
    |]

let space p =
  let names = axis_names p and lv = levels p in
  Array.mapi
    (fun i name -> { Search.name; cardinality = Array.length lv.(i) })
    names

let fault_axis p = Array.length (axis_names p) - 1

type t = { protocol : protocol; seed : int; point : int array }

let make protocol ~seed point =
  let lv = levels protocol in
  if Array.length point <> Array.length lv then
    invalid_arg
      (Printf.sprintf "Strategy.make: %s takes %d axes, got %d" (protocol_label protocol)
         (Array.length lv) (Array.length point));
  Array.iteri
    (fun i v ->
      if v < 0 || v >= Array.length lv.(i) then
        invalid_arg
          (Printf.sprintf "Strategy.make: axis %s has %d levels, got %d"
             (axis_names protocol).(i) (Array.length lv.(i)) v))
    point;
  { protocol; seed; point = Array.copy point }

let equal a b = a.protocol = b.protocol && a.seed = b.seed && a.point = b.point

(* --- codec -------------------------------------------------------------------- *)

let encode t =
  let names = axis_names t.protocol and lv = levels t.protocol in
  let fields =
    Array.to_list (Array.mapi (fun i v -> Printf.sprintf "%s=%s" names.(i) lv.(i).(v)) t.point)
  in
  String.concat " "
    ([ "strategy"; "v1"; protocol_label t.protocol; Printf.sprintf "seed=%d" t.seed ] @ fields)

let decode line =
  let toks = Array.of_list (List.filter (( <> ) "") (String.split_on_char ' ' line)) in
  let len = Array.length toks in
  let err i msg = Error (Printf.sprintf "token %d: %s in %S" i msg line) in
  let need i what =
    if i <= len then Ok toks.(i - 1)
    else Error (Printf.sprintf "token %d: truncated (expected %s) in %S" i what line)
  in
  let ( let* ) = Result.bind in
  let key_value i what tok =
    match String.index_opt tok '=' with
    | Some j -> Ok (String.sub tok 0 j, String.sub tok (j + 1) (String.length tok - j - 1))
    | None -> err i (Printf.sprintf "expected %s, got %S" what tok)
  in
  let* magic = need 1 "\"strategy\"" in
  let* () = if magic = "strategy" then Ok () else err 1 (Printf.sprintf "expected \"strategy\", got %S" magic) in
  let* version = need 2 "version \"v1\"" in
  let* () =
    if version = "v1" then Ok () else err 2 (Printf.sprintf "unknown version %S (expected \"v1\")" version)
  in
  let* label = need 3 "a protocol name" in
  let* protocol =
    match protocol_of_label label with
    | Some p -> Ok p
    | None ->
      err 3
        (Printf.sprintf "unknown protocol %S (expected %s)" label
           (String.concat " | " (List.map protocol_label protocols)))
  in
  let* seed_tok = need 4 "seed=<int>" in
  let* key, value = key_value 4 "seed=<int>" seed_tok in
  let* () = if key = "seed" then Ok () else err 4 (Printf.sprintf "unknown field %S (expected \"seed\")" key) in
  let* seed =
    match int_of_string_opt value with
    | Some s -> Ok s
    | None -> err 4 (Printf.sprintf "seed %S is not an integer" value)
  in
  let names = axis_names protocol and lv = levels protocol in
  let k = Array.length names in
  let point = Array.make k 0 in
  let rec axes i =
    if i >= k then Ok ()
    else begin
      let pos = 5 + i in
      let* tok = need pos (Printf.sprintf "field %S" names.(i)) in
      let* key, value = key_value pos (Printf.sprintf "%s=<level>" names.(i)) tok in
      let* () =
        if key = names.(i) then Ok ()
        else err pos (Printf.sprintf "unknown field %S (expected %S)" key names.(i))
      in
      let* v =
        let rec find j =
          if j >= Array.length lv.(i) then
            err pos
              (Printf.sprintf "unknown level %S for field %S (expected %s)" value names.(i)
                 (String.concat " | " (Array.to_list lv.(i))))
          else if lv.(i).(j) = value then Ok j
          else find (j + 1)
        in
        find 0
      in
      point.(i) <- v;
      axes (i + 1)
    end
  in
  let* () = axes 0 in
  if len > 4 + k then err (5 + k) (Printf.sprintf "trailing token %S" toks.(4 + k))
  else Ok { protocol; seed; point }

(* --- fault knob --------------------------------------------------------------- *)

let fault_of t =
  match t.point.(fault_axis t.protocol) with
  | 0 -> Fault.none
  | 1 -> Fault.equivocate_only
  | _ -> Fault.make ~crash:0.1 ~crash_mode:Fault.Crash_vacuous ()

let fault_param t =
  let f = fault_of t in
  if Fault.is_none f then None else Some f

(* --- response distortions ----------------------------------------------------- *)

(* Shared by the three symmetry-style protocols, generic in the field
   carrier (int for sym_dmam/dsym, Nat for sym_dam). *)

let tweak_sums (type e) (f : e Field.t) ~root ~level ~(a : e array) (b : e array) =
  match level with
  | 0 -> b
  | 1 ->
    (* Force the root comparison a_r = b_r to pass; the root's own subtree
       equation for b then fails. *)
    let b = Array.copy b in
    b.(root) <- a.(root);
    b
  | _ -> Array.map (fun x -> f.Field.add x f.Field.one) b

let tweak_echo (type e) (f : e Field.t) ~level (index : e array) =
  if level = 0 then index else Array.map (fun x -> f.Field.add x f.Field.one) index

let check t want fn =
  if t.protocol <> want then
    invalid_arg (Printf.sprintf "Strategy.%s: strategy is for %s" fn (protocol_label t.protocol))

(* --- provers ------------------------------------------------------------------ *)

let sym_dmam_prover t =
  check t Sym_dmam "sym_dmam_prover";
  let perm = t.point.(0) and split = t.point.(1) and sums = t.point.(2) and echo = t.point.(3) in
  let rho_for g =
    let n = Graph.n g in
    match perm with
    | 0 -> Sym_dmam.fallback_rho g
    | 1 -> Perm.random_nonidentity (Rng.create (Hashtbl.hash (Graph.encode g) + t.seed)) n
    | 2 -> Perm.identity n
    | _ -> Perm.of_array (Array.init n (fun i -> (i + 1) mod n))
  in
  { Sym_dmam.name = encode t;
    commit =
      (fun _params g ->
        let c = Sym_dmam.commit_with_rho g (rho_for g) in
        if split = 0 then c
        else begin
          (* Claim a different root to vertex 0 than to everyone else. *)
          let root = Array.copy c.Sym_dmam.root in
          root.(0) <- (if root.(0) = 0 then 1 else 0);
          { c with Sym_dmam.root }
        end);
    respond =
      (fun params g c challenges ->
        let f = params.Sym_dmam.field in
        let r = Sym_dmam.respond_consistently params g c challenges in
        let root = c.Sym_dmam.root.(0) in
        { r with
          Sym_dmam.b = tweak_sums f ~root ~level:sums ~a:r.Sym_dmam.a r.Sym_dmam.b;
          index = tweak_echo f ~level:echo r.Sym_dmam.index
        })
  }

let sym_dam_prover t =
  check t Sym_dam "sym_dam_prover";
  let perm = t.point.(0) and sums = t.point.(1) and echo = t.point.(2) in
  { Sym_dam.name = encode t;
    respond =
      (fun params g challenges ->
        let n = Graph.n g in
        let table =
          match perm with
          | 0 ->
            Sym_dam.search_table
              ~seed:((Hashtbl.hash (Graph.encode g) lxor 0x9e1) + t.seed)
              params g challenges
          | 1 -> Sym_dam.fallback_table n
          | 2 ->
            Perm.to_array
              (Perm.random_nonidentity
                 (Rng.create ((Hashtbl.hash (Graph.encode g) lxor 0x77) + t.seed))
                 n)
          | _ -> Array.init n Fun.id
        in
        let r = Sym_dam.respond_with_rho params g challenges table in
        let f = params.Sym_dam.field in
        let root = r.Sym_dam.root.(0) in
        { r with
          Sym_dam.b = tweak_sums f ~root ~level:sums ~a:r.Sym_dam.a r.Sym_dam.b;
          index = tweak_echo f ~level:echo r.Sym_dam.index
        })
  }

let dsym_prover t =
  check t Dsym "dsym_prover";
  let perm = t.point.(0) and root_ax = t.point.(1) and sums = t.point.(2) and echo = t.point.(3) in
  { Dsym.name = encode t;
    respond =
      (fun params inst challenges ->
        let size = Graph.n inst.Dsym.graph in
        let sigma = Precomp.dsym_sigma ~n:inst.Dsym.n ~r:inst.Dsym.r in
        let sigma = if perm = 0 then sigma else Perm.compose sigma (Perm.transposition size 0 1) in
        let root = root_ax in
        let r = Dsym.respond_with ~root ~sigma params inst challenges in
        let f = params.Dsym.field in
        { r with
          Dsym.b = tweak_sums f ~root ~level:sums ~a:r.Dsym.a r.Dsym.b;
          index = tweak_echo f ~level:echo r.Dsym.index
        })
  }

let gni_prover t =
  check t Gni "gni_prover";
  let commit =
    match t.point.(0) with
    | 0 -> `Search
    | 1 -> `Deny `Identity
    | 2 -> `Deny (`Random (99 + t.seed))
    | _ -> `Always_identity
  in
  let reveal = if t.point.(1) = 0 then `Honest else `Patch_root in
  Gni.cheat ~name:(encode t) ~commit ~reveal

(* --- the named registry --------------------------------------------------------- *)

(* Every named cheater is one seed-0, fault=none grid point, given by its
   encoding; the comment above each entry is why it loses. *)
let registry_table = function
  | Sym_dmam ->
    [ (* A random non-identity rho played consistently: on an asymmetric graph
         it wins only on a hash collision, probability at most (n^2+n)/p. *)
      ( "random-perm",
        "strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none" );
      (* Forces the root comparison a_r = b_r; the root's own Line-3 equation
         for b then fails, so it wins only where the forgery is a no-op — on
         the same rho's hash collisions as random-perm. *)
      ( "forged-sums",
        "strategy v1 sym_dmam seed=0 perm=random split=none sums=forge-root-b echo=root fault=none" );
      (* The identity: the root's rho_r <> r check rejects it. *)
      ( "identity",
        "strategy v1 sym_dmam seed=0 perm=identity split=none sums=consistent echo=root fault=none" );
      (* Sends vertex 0 a different broadcast root than everyone else; the
         neighbor-comparison check rejects it. *)
      ( "split-broadcast",
        "strategy v1 sym_dmam seed=0 perm=random split=root sums=consistent echo=root fault=none" )
    ]
  | Sym_dam ->
    [ (* Searches transpositions and random permutations for a mapping that
         collides under the revealed index; on asymmetric graphs Theorem 3.5's
         union bound caps it near n^2 (n^2+n)/p. *)
      ("search", "strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none");
      (* Ignores the challenge and bets on one random non-identity rho. *)
      ("random-perm", "strategy v1 sym_dam seed=0 perm=random sums=consistent echo=root fault=none")
    ]
  | Dsym ->
    [ (* The honest moves on a NO instance: wins exactly when the hash collides
         although sigma is no automorphism, at most (N^2+N)/p (Theorem 3.2) —
         optimal against structurally valid NO instances, since every other
         check is deterministic. *)
      ( "consistent",
        "strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none" );
      (* Aggregates b under sigma composed with (0 1); the verifiers recompute
         their b-terms from the true sigma, so it is rejected with probability
         1, even on YES instances. *)
      ( "wrong-permutation",
        "strategy v1 dsym seed=0 perm=swapped root=zero sums=consistent echo=root fault=none" )
    ]
  | Gni ->
    [ (* Claims a preimage after a miss and patches the root's aggregate so the
         target equation passes; the root's own aggregation check then fails,
         so forged repetitions never count. *)
      ("forge-aggregates", "strategy v1 gni seed=0 commit=deny-random reveal=patch-root fault=none");
      (* Never searches: always commits to (identity, g0) and reveals honestly,
         betting on the identity hash landing on the target — about 1/q per
         repetition, far below the honest rate. *)
      ("biased-hash", "strategy v1 gni seed=0 commit=identity-always reveal=honest fault=none")
    ]

let registry p =
  List.map
    (fun (name, line) ->
      match decode line with
      | Ok t when t.protocol = p -> (name, t)
      | Ok _ | Error _ -> invalid_arg ("Strategy.registry: bad entry " ^ line))
    (registry_table p)

(* --- frontier cases ----------------------------------------------------------- *)

type frontier_case = {
  protocol : protocol;
  label : string;
  n : int;
  space : Search.space;
  bound : float;
  bound_label : string;
  strategy_of : Search.point -> t;
  trial : Search.point -> int -> Ids_engine.Accum.trial;
  registry : (string * (int -> Ids_engine.Accum.trial)) list;
}

(* Fixed NO instances derived from hard-coded seeds: the frontier is a
   property of one instance, so every process measures the same curves and
   the tier-1 pins can assert exact acceptance counts. *)
let frontier_cases () =
  let case protocol ~n ~bound ~bound_label run =
    let strategy_of pt = make protocol ~seed:0 pt in
    let trial pt seed = Stats.trial_of_outcome (run (strategy_of pt) seed) in
    { protocol;
      label = protocol_label protocol;
      n;
      space = space protocol;
      bound;
      bound_label;
      strategy_of;
      trial;
      registry = List.map (fun (name, s) -> (name, trial s.point)) (registry protocol)
    }
  in
  let sym_dmam_case =
    let g = Family.random_asymmetric (Rng.create 21) 8 in
    let params = Sym_dmam.params_for ~seed:3 g in
    case Sym_dmam ~n:8
      ~bound:(float_of_int ((8 * 8) + 8) /. float_of_int params.Sym_dmam.p)
      ~bound_label:"(n^2+n)/p"
      (fun s seed -> Sym_dmam.run ?fault:(fault_param s) ~params ~seed g (sym_dmam_prover s))
  in
  let sym_dam_case =
    let g = Family.random_asymmetric (Rng.create 22) 6 in
    let params = Sym_dam.params_for ~seed:3 g in
    let p_float =
      match Nat.to_int_opt params.Sym_dam.p with
      | Some p -> float_of_int p
      | None -> Float.infinity
    in
    case Sym_dam ~n:6
      ~bound:((6. ** 6.) *. float_of_int ((6 * 6) + 6) /. p_float)
      ~bound_label:"n^n (n^2+n)/p"
      (fun s seed -> Sym_dam.run ?fault:(fault_param s) ~params ~seed g (sym_dam_prover s))
  in
  let dsym_case =
    let side = 6 and r = 1 in
    let core = Family.random_asymmetric (Rng.create 23) side in
    let inst = Dsym.make_instance ~n:side ~r (Family.dsym_perturbed (Rng.create 24) core r) in
    let params = Dsym.params_for ~seed:3 inst in
    let size = (2 * side) + (2 * r) + 1 in
    case Dsym ~n:size
      ~bound:(float_of_int ((size * size) + size) /. float_of_int params.Dsym.p)
      ~bound_label:"(N^2+N)/p"
      (fun s seed -> Dsym.run ?fault:(fault_param s) ~params ~seed inst (dsym_prover s))
  in
  let gni_case =
    let inst = Gni.no_instance (Rng.create 25) 6 in
    let params = Gni.params_for ~seed:3 inst in
    case Gni ~n:6 ~bound:(Gni.no_rate_bound params) ~bound_label:"n!/q"
      (fun s seed -> Gni.run_single ?fault:(fault_param s) ~params ~seed inst (gni_prover s))
  in
  [ sym_dmam_case; sym_dam_case; dsym_case; gni_case ]
