module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Iso = Ids_graph.Iso
module Rng = Ids_bignum.Rng

type instance = {
  g0 : Graph.t;
  g1 : Graph.t;
  n : int;
  aut0 : int array list Lazy.t;
  aut1 : int array list Lazy.t;
  core : Gs.t;
}

let automorphism_tables g =
  List.filter_map
    (fun p -> if Iso.is_automorphism g p then Some (Perm.to_array p) else None)
    (Perm.all (Graph.n g))

(* Rows of the hashed object for a commitment (sigma, b, alpha): the 2n-row
   stack of A_{sigma(G_b)} and the permutation matrix of
   beta = sigma alpha sigma^{-1}. Node v owns rows sigma(v) and
   n + sigma(v). Its audit terms are the Lemma 3.1 pair: the rows
   [v, N_b(v)] and [alpha(v), alpha(N_b(v))]. *)
let layout g0 g1 tables b v =
  let sigma = tables.(0) and alpha = tables.(1) in
  let g = if b = 0 then g0 else g1 in
  let n = Graph.n g in
  let image table =
    let s = Bitset.create n in
    Bitset.iter (fun u -> Bitset.add s table.(u)) (Graph.closed_neighborhood g v);
    s
  in
  let auto = Bitset.create n in
  Bitset.add auto sigma.(alpha.(v));
  ( [ (sigma.(v), image sigma); (n + sigma.(v), auto) ],
    [| (v, Graph.closed_neighborhood g v); (alpha.(v), image alpha) |] )

(* Key identifying the represented pair (H, beta): the map (sigma, alpha) to
   pairs is |Aut|-to-1, so deduplicating by key enumerates S exactly. *)
let pair_key g sigma alpha =
  let n = Graph.n g in
  let h = Graph.relabel g sigma in
  let beta = Array.make n 0 in
  let sigma_inv = Perm.inverse (Perm.of_array sigma) in
  for w = 0 to n - 1 do
    beta.(w) <- sigma.(alpha.(Perm.apply sigma_inv w))
  done;
  Graph.encode h ^ "|" ^ String.concat "," (Array.to_list (Array.map string_of_int beta))

let make_instance g0 g1 =
  let n = Graph.n g0 in
  if Graph.n g1 <> n then invalid_arg "Gni_full.make_instance: size mismatch";
  if n > 7 then invalid_arg "Gni_full.make_instance: n > 7";
  if not (Graph.is_connected g0) then invalid_arg "Gni_full.make_instance: network graph must be connected";
  let aut0 = lazy (automorphism_tables g0) and aut1 = lazy (automorphism_tables g1) in
  let enumerate core =
    let check_size auts =
      if List.length auts > 256 then
        invalid_arg "Gni_full.make_instance: automorphism group too large to enumerate"
    in
    check_size (Lazy.force aut0);
    check_size (Lazy.force aut1);
    let seen = Hashtbl.create 4096 in
    let acc = ref [] in
    let perms = List.map Perm.to_array (Perm.all n) in
    List.iter
      (fun (g, b, auts) ->
        List.iter
          (fun sigma ->
            List.iter
              (fun alpha ->
                (* The key deliberately omits b: S is a set of pairs
                   (H, beta), and for isomorphic inputs the two sides
                   contribute the same pairs — which is the whole point
                   of the size gap. *)
                let key = pair_key g sigma alpha in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  acc := Gs.candidate core ~b [| sigma; alpha |] :: !acc
                end)
              auts)
          perms)
      [ (g0, 0, Lazy.force aut0); (g1, 1, Lazy.force aut1) ];
    Array.of_list (List.rev !acc)
  in
  (* The hashed matrices have 2n rows of width 2n (only the first n columns
     are populated). NO side: a committed fake automorphism slips past the
     post-commitment audit with probability at most (n^2+n)/q. *)
  let core =
    Gs.make ~graph:g0 ~width:(2 * n) ~set_size:(Precomp.factorial n) ~salt:0x51c7 ~slack:((n * n) + n)
      ~tables:2 ~audits:2 ~layout:(layout g0 g1) ~enumerate
  in
  { g0; g1; n; aut0; aut1; core }

let small_symmetric rng n =
  let rec sample () =
    let g = Graph.random_connected_gnp rng n 0.5 in
    if Iso.is_symmetric g && List.length (automorphism_tables g) <= 48 then g else sample ()
  in
  sample ()

let yes_instance rng n =
  let g0 = small_symmetric rng n in
  let rec pick () =
    let g1 = Ids_graph.Family.random_asymmetric rng n in
    if Iso.are_isomorphic g0 g1 then pick () else g1
  in
  make_instance g0 (pick ())

let no_instance rng n =
  let g0 = small_symmetric rng n in
  make_instance g0 (Graph.relabel g0 (Perm.to_array (Perm.random rng n)))

type params = Gs.params

let params_for ?repetitions ~seed inst = Gs.params_for ?repetitions ~seed inst.core

type prover = Gs.prover

let prover_name = Gs.prover_name

let honest = Gs.honest

(* On a miss, inflate the candidate set with non-automorphisms: much easier
   to hit the target, but the audit will expose the commitment. *)
let fake_automorphism_search params core spec target =
  match Gs.find_preimage params core spec target with
  | Some _ as hit -> hit
  | None ->
    let g0 = Gs.graph core in
    let n = Graph.n g0 in
    let hash = Gs.hash_rows params core spec in
    let rng = Rng.create 4242 in
    let fakes =
      List.filter
        (fun t -> not (Iso.is_automorphism g0 (Perm.of_array t)))
        (List.init 8 (fun _ -> Perm.to_array (Perm.random rng n)))
    in
    let hit = ref None in
    List.iter
      (fun sigma ->
        List.iter
          (fun alpha ->
            if !hit = None && hash (Gs.candidate core ~b:0 [| sigma; alpha |]).Gs.rows = target then
              hit := Some (0, [| sigma; alpha |]))
          fakes)
      (List.map Perm.to_array (Perm.all n));
    !hit

let adversary_fake_automorphism =
  { Gs.name = "adversary:fake-automorphism";
    commit = Gs.commit_with fake_automorphism_search;
    reveal = Gs.honest_reveal
  }

let run_single ?fault ?params ~seed inst prover =
  Gs.run_single ~span:"gni_full.run_single" ?fault ?params ~seed inst.core prover

let run ?fault ?params ~seed inst prover =
  Gs.run ~span:"gni_full.run" ?fault ?params ~seed inst.core prover
