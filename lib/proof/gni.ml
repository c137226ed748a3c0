module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Iso = Ids_graph.Iso
module Field = Ids_hash.Field
module Api = Ids_hash.Api
module Rng = Ids_bignum.Rng

type instance = { g0 : Graph.t; g1 : Graph.t; n : int; core : Gs.t }

(* Node v owns one row once (sigma, b) is fixed: index sigma(v), content
   sigma(N_b(v)); the same row, linearly hashed, is its audit term. *)
let layout g0 g1 tables b v =
  let sigma = tables.(0) and g = if b = 0 then g0 else g1 in
  let content = Bitset.create (Graph.n g) in
  Bitset.iter (fun u -> Bitset.add content sigma.(u)) (Graph.closed_neighborhood g v);
  let row = (sigma.(v), content) in
  ([ row ], [| row |])

let make_instance g0 g1 =
  let n = Graph.n g0 in
  if Graph.n g1 <> n then invalid_arg "Gni.make_instance: size mismatch";
  if n > 8 then invalid_arg "Gni.make_instance: n > 8 (exhaustive prover scans 2 n! permutations)";
  if not (Graph.is_connected g0) then invalid_arg "Gni.make_instance: network graph must be connected";
  if Iso.is_symmetric g0 || Iso.is_symmetric g1 then
    invalid_arg "Gni.make_instance: graphs must be asymmetric (Section 4's restriction)";
  (* Every (sigma, b): for asymmetric graphs the 2 n! matrices are distinct
     on YES instances, and each NO matrix appears once per side. *)
  let enumerate core =
    let of_b b = List.map (fun sigma -> Gs.candidate core ~b [| Perm.to_array sigma |]) (Perm.all n) in
    Array.of_list (of_b 0 @ of_b 1)
  in
  let core =
    Gs.make ~graph:g0 ~width:n ~set_size:(Precomp.factorial n) ~salt:0x6b2f ~slack:0 ~tables:1 ~audits:1
      ~layout:(layout g0 g1) ~enumerate
  in
  { g0; g1; n; core }

let yes_instance rng n =
  let g0 = Ids_graph.Family.random_asymmetric rng n in
  let rec pick () =
    let g1 = Ids_graph.Family.random_asymmetric rng n in
    if Iso.are_isomorphic g0 g1 then pick () else g1
  in
  make_instance g0 (pick ())

let no_instance rng n =
  let g0 = Ids_graph.Family.random_asymmetric rng n in
  let g1 = Graph.relabel g0 (Perm.to_array (Perm.random rng n)) in
  make_instance g0 g1

type params = Gs.params

let params_for ?repetitions ~seed inst = Gs.params_for ?repetitions ~seed inst.core

let yes_rate_bound (p : params) = p.yes_bound
let no_rate_bound (p : params) = p.no_bound

type prover = Gs.prover

let prover_name = Gs.prover_name

let honest = Gs.honest

type commit_mode = [ `Search | `Deny of [ `Identity | `Random of int ] | `Always_identity ]

type reveal_mode = [ `Honest | `Patch_root ]

let identity_table n = Array.init n Fun.id

(* Honest search, but a miss is never admitted: claim a preimage that does
   not exist (the failed search already ruled every table out, so the bet is
   hopeless, but the structural checks all pass until the root's target
   equation). *)
let deny_search table_for params core spec target =
  match Gs.find_preimage params core spec target with
  | Some _ as hit -> hit
  | None -> Some (0, [| table_for (Graph.n (Gs.graph core)) |])

(* Never searches: commits to (identity, g0) whether or not the target has a
   preimage, betting on the identity hash landing on the target. The reveal
   is honest for that commitment, so every structural check passes and the
   bet is settled by the root's outer target equation alone — per repetition
   it wins with probability about 1/q, far below the honest miss rate of
   roughly 1 - 2 n!/q. *)
let always_identity_search _params core _spec _target =
  Some (0, [| identity_table (Graph.n (Gs.graph core)) |])

(* Patch the root's aggregate so the outer target equation passes; the
   root's own aggregation check then fails instead. *)
let patch_root_reveal (params : params) core ch (c : Gs.commit) audit =
  let r = Gs.honest_reveal params core ch c audit in
  let f = params.field in
  let root = c.root.(0) and spec = c.spec_echo.(0) and target = c.target_echo.(0) in
  let current = Api.finalize f spec r.agg.(root) in
  if f.Field.equal current target then r
  else begin
    let c0 = spec.Api.coeffs.(0) in
    (* Solve c0 * delta = target - current for delta when c0 <> 0. *)
    let delta =
      if c0 = 0 then 0
      else begin
        let diff = f.Field.sub target current in
        (* Fermat inversion: c0^(q-2) mod q. *)
        let inv = f.Field.pow_int c0 (params.q - 2) in
        f.Field.mul diff inv
      end
    in
    let agg = Array.map Array.copy r.agg in
    agg.(root).(0) <- f.Field.add agg.(root).(0) delta;
    { r with agg }
  end

let cheat ~name ~commit ~reveal =
  let search =
    match commit with
    | `Search -> Gs.find_preimage
    | `Deny `Identity -> deny_search identity_table
    | `Deny (`Random seed) -> deny_search (fun n -> Perm.to_array (Perm.random (Rng.create seed) n))
    | `Always_identity -> always_identity_search
  in
  let reveal = match reveal with `Honest -> Gs.honest_reveal | `Patch_root -> patch_root_reveal in
  { Gs.name; commit = Gs.commit_with search; reveal }

let run_single ?fault ?params ~seed inst prover =
  Gs.run_single ~span:"gni.run_single" ?fault ?params ~seed inst.core prover

let run ?fault ?params ~seed inst prover = Gs.run ~span:"gni.run" ?fault ?params ~seed inst.core prover
