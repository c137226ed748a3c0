module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Rng = Ids_bignum.Rng

type instance = {
  g : Graph.t;
  marks : int array;
  n : int;
  k : int;
  h0 : Graph.t;
  h1 : Graph.t;
  core : Gs.t;
}

let class_members marks b =
  let acc = ref [] in
  Array.iteri (fun v m -> if m = b then acc := v :: !acc) marks;
  List.rev !acc

let induced_of g marks b = Graph.induced g (class_members marks b)

(* Closed neighborhood of [u] within its own class. *)
let class_neighborhood g marks u =
  let s = Bitset.create (Graph.n g) in
  Bitset.add s u;
  Bitset.iter (fun w -> if marks.(w) = marks.(u) then Bitset.add s w) (Graph.neighbors g u);
  s

(* Node v owns its embedded matrix row and automorphism row when marked with
   the committed class, nothing otherwise; its audit terms are the Lemma 3.1
   pair on the induced matrix, in original ids. *)
let layout g marks tables b v =
  if marks.(v) <> b then ([], [||])
  else begin
    let psi = tables.(0) and alpha = tables.(1) in
    let n = Graph.n g in
    let nb = class_neighborhood g marks v in
    let image table =
      let s = Bitset.create n in
      Bitset.iter (fun w -> Bitset.add s table.(w)) nb;
      s
    in
    let auto = Bitset.create n in
    Bitset.add auto psi.(alpha.(v));
    ([ (psi.(v), image psi); (n + psi.(v), auto) ], [| (v, nb); (alpha.(v), image alpha) |])
  end

(* Bijections of the class that preserve induced adjacency — Aut(H_b) in
   original-id space, including the identity. Enumerated over the k! maps. *)
let class_automorphisms g marks b =
  let members = Array.of_list (class_members marks b) in
  let k = Array.length members in
  let preserves table =
    let ok = ref true in
    Array.iter
      (fun u ->
        Array.iter
          (fun w -> if u < w && Graph.has_edge g u w <> Graph.has_edge g table.(u) table.(w) then ok := false)
          members)
      members;
    !ok
  in
  List.filter_map
    (fun p ->
      let table = Array.init (Array.length marks) Fun.id in
      Array.iteri (fun i u -> table.(u) <- members.(Perm.apply p i)) members;
      if preserves table then Some table else None)
    (Perm.all k)

let permutations_count n k =
  let rec go acc i = if i = 0 then acc else go (acc * (n - i + 1)) (i - 1) in
  go 1 k

let make_instance g marks =
  let n = Graph.n g in
  if Array.length marks <> n then invalid_arg "Gni_induced.make_instance: marks length mismatch";
  Array.iter (fun m -> if m < -1 || m > 1 then invalid_arg "Gni_induced.make_instance: bad mark") marks;
  if not (Graph.is_connected g) then invalid_arg "Gni_induced.make_instance: network must be connected";
  let c0 = class_members marks 0 and c1 = class_members marks 1 in
  let k = List.length c0 in
  if List.length c1 <> k || k = 0 then invalid_arg "Gni_induced.make_instance: classes must be equal-sized";
  if k > 5 then invalid_arg "Gni_induced.make_instance: k > 5 (the prover scans P(n,k) * k! pairs)";
  if permutations_count n k > 1 lsl 21 then
    invalid_arg "Gni_induced.make_instance: candidate set too large to enumerate";
  let enumerate core =
    let seen = Hashtbl.create 4096 in
    let acc = ref [] in
    (* One full permutation per injection: place the class members, fill
       the rest in increasing order. Distinct objects are deduped by their
       serialized rows. *)
    let rec injections chosen remaining =
      if remaining = 0 then [ List.rev chosen ]
      else
        List.concat_map
          (fun t -> if List.mem t chosen then [] else injections (t :: chosen) (remaining - 1))
          (List.init n Fun.id)
    in
    let complete_perm members targets =
      let psi = Array.make n (-1) in
      List.iter2 (fun u t -> psi.(u) <- t) members targets;
      let used = Array.make n false in
      Array.iter (fun t -> if t >= 0 then used.(t) <- true) psi;
      let free = ref (List.filter (fun t -> not used.(t)) (List.init n Fun.id)) in
      Array.iteri
        (fun v t ->
          if t < 0 then begin
            match !free with
            | f :: rest ->
              psi.(v) <- f;
              free := rest
            | [] -> assert false
          end)
        psi;
      psi
    in
    let serialize rows =
      String.concat ";"
        (List.map (fun (i, s) -> Printf.sprintf "%d:%s" i (Format.asprintf "%a" Bitset.pp s))
           (List.sort Stdlib.compare (Array.to_list rows)))
    in
    List.iter
      (fun b ->
        let members = class_members marks b in
        let auts = class_automorphisms g marks b in
        List.iter
          (fun targets ->
            let psi = complete_perm members targets in
            List.iter
              (fun alpha ->
                let c = Gs.candidate core ~b [| psi; alpha |] in
                let key = serialize c.Gs.rows in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  acc := c :: !acc
                end)
              auts)
          (injections [] k))
      [ 0; 1 ];
    Array.of_list (List.rev !acc)
  in
  (* The NO-side slack ((2n)^2 + 2n)/q is looser than the width-n audit
     needs, but safe; thresholds depend on it, so it stays. *)
  let width = 2 * n in
  let core =
    Gs.make ~graph:g ~width ~set_size:(permutations_count n k) ~salt:0x77aa ~slack:((width * width) + width)
      ~tables:2 ~audits:2 ~layout:(layout g marks) ~enumerate
  in
  { g; marks; n; k; h0 = induced_of g marks 0; h1 = induced_of g marks 1; core }

let plant rng ~n ~h0 ~h1 =
  let k = Graph.n h0 in
  if Graph.n h1 <> k then invalid_arg "Gni_induced.plant: side sizes differ";
  if n < 2 * k then invalid_arg "Gni_induced.plant: need n >= 2k";
  let rec attempt tries =
    if tries = 0 then failwith "Gni_induced.plant: could not build a connected instance"
    else begin
      let order = Array.init n Fun.id in
      Rng.shuffle rng order;
      let marks = Array.make n (-1) in
      let c0 = Array.sub order 0 k and c1 = Array.sub order k k in
      Array.iter (fun v -> marks.(v) <- 0) c0;
      Array.iter (fun v -> marks.(v) <- 1) c1;
      let g = Graph.make n in
      (* Background edges between nodes of different classes (or unmarked). *)
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if (marks.(u) <> marks.(v) || marks.(u) = -1) && Rng.float rng < 0.4 then Graph.add_edge g u v
        done
      done;
      (* Planted induced structure inside each class. *)
      let plant_side members h =
        List.iter (fun (i, j) -> Graph.add_edge g members.(i) members.(j)) (Graph.edges h)
      in
      plant_side c0 h0;
      plant_side c1 h1;
      if Graph.is_connected g then make_instance g marks else attempt (tries - 1)
    end
  in
  attempt 50

let p4 = Graph.path 4
let k13 = Graph.star 4

let yes_instance rng n = plant rng ~n ~h0:p4 ~h1:k13
let no_instance rng n = plant rng ~n ~h0:p4 ~h1:p4

type params = Gs.params

let params_for ?repetitions ~seed inst = Gs.params_for ?repetitions ~seed inst.core

type prover = Gs.prover

let prover_name = Gs.prover_name

let honest = Gs.honest

let run_single ?fault ?params ~seed inst prover =
  Gs.run_single ~span:"gni_induced.run_single" ?fault ?params ~seed inst.core prover

let run ?fault ?params ~seed inst prover =
  Gs.run ~span:"gni_induced.run" ?fault ?params ~seed inst.core prover
