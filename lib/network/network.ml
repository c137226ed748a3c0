module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Rng = Ids_bignum.Rng
module Obs = Ids_obs.Obs
module Scheduler = Ids_engine.Scheduler

(* Per-round, per-node bit counters mirror the Cost ledger charge for
   charge: their totals sum exactly to Cost.total over the traced window. *)
let c_to_prover = Obs.Counter.make "net.to_prover_bits"
let c_from_prover = Obs.Counter.make "net.from_prover_bits"
let c_draws = Obs.Counter.make "net.challenge_draws"
let c_fault_decisions = Obs.Counter.make "net.fault_decisions"
let c_fault_drops = Obs.Counter.make "net.fault_drops"
let h_msg_bits = Obs.Histo.make "net.msg_bits"

type t = {
  graph : Graph.t;
  cost : Cost.t;
  rng : Rng.t;
  fault : Fault.t option;
  missed : bool array;
  mutable round : int;
}

let create ?fault ~seed graph =
  let n = Graph.n graph in
  let fault =
    match fault with
    | Some spec when not (Fault.is_none spec) -> Some (Fault.create ~seed ~n spec)
    | Some _ | None -> None
  in
  { graph;
    cost = Cost.create n;
    rng = Rng.create seed;
    fault;
    missed = Array.make n false;
    round = 0
  }

let graph t = t.graph
let n t = Graph.n t.graph
let cost t = t.cost
let rng t = t.rng

(* Every channel operation (challenge, unicast, broadcast) is one round;
   the counter exists whether or not tracing is on, so round numbering in
   traces matches what a protocol would compute by hand. It is independent
   of Fault's internal round counter, which keys fault randomness. *)
let next_round t =
  t.round <- t.round + 1;
  t.round

let crashed t v = match t.fault with Some f -> Fault.crashed f v | None -> false
let missed t v = t.missed.(v)

let take_missed t =
  let snapshot = Array.copy t.missed in
  Array.fill t.missed 0 (Array.length t.missed) false;
  snapshot

(* Crashed nodes are silent for the whole execution: they neither send
   challenges nor receive responses, so the ledger must not charge them
   (a crashed-silent node billed per round was inflating the E13 crash
   degradation sweeps). *)
let charge_live_to_prover t ~round bits =
  for v = 0 to n t - 1 do
    if not (crashed t v) then begin
      Cost.charge_to_prover t.cost v bits;
      Obs.Counter.add_cell c_to_prover ~round ~node:v bits
    end
  done

let charge_live_from_prover t ~round bits =
  for v = 0 to n t - 1 do
    if not (crashed t v) then begin
      Cost.charge_from_prover t.cost v bits;
      Obs.Counter.add_cell c_from_prover ~round ~node:v bits
    end
  done

let challenge t ~bits gen =
  let round = next_round t in
  Obs.span ~round "net.challenge" (fun () ->
      charge_live_to_prover t ~round bits;
      if Obs.enabled () then begin
        Obs.Counter.add c_draws (n t);
        Obs.Histo.observe h_msg_bits bits
      end;
      (* Each node owns an independent generator split off the execution seed. *)
      let a = Array.init (n t) (fun _ -> gen (Rng.split t.rng)) in
      (match t.fault with
      | None -> ()
      | Some f ->
        let fround = Fault.next_round f in
        for v = 0 to n t - 1 do
          (* Delivery failure is modeled purely as decide-time rejection: the
             drawn value stays in the returned array (and is typically handed to
             the prover — there is no generic sentinel for 'c), but the sending
             node is marked missed so {!decide}, or a protocol folding
             {!take_missed} into its own verdicts, rejects it. Soundness must
             never depend on hiding a dropped challenge from the prover. A
             crashed node sends nothing, so nothing of it is dropped. *)
          let live = not (Fault.crashed f v) in
          if live then Obs.Counter.add_cell c_fault_decisions ~round ~node:v 1;
          match Fault.deliver f ~round:fround ~node:v a.(v) with
          | Fault.Dropped when live ->
            t.missed.(v) <- true;
            Obs.Counter.add_cell c_fault_drops ~round ~node:v 1
          | Fault.Dropped | Fault.Delivered _ -> ()
        done);
      a)

let check_length t a = if Array.length a <> n t then invalid_arg "Network: response length mismatch"

(* Per-node delivery over one prover-response round, written into [out]
   (the caller's own array when it is fresh, else a copy). Equivocation
   (broadcast rounds only) corrupts the keyed victim's copy after regular
   delivery, so the spec's drop/corrupt rates and the equivocation attack
   compose. A crashed node's slot is still delivered, because live
   neighbours' tree and subtree checks read it, but a silent node has no
   channel to fail: it is neither counted nor marked missed. *)
let apply_faults t ?corrupt ?on_drop ~round ~equivocable ~fresh responses =
  match t.fault with
  | None -> responses
  | Some f ->
    let fround = Fault.next_round f in
    let out = if fresh then responses else Array.copy responses in
    for v = 0 to Array.length out - 1 do
      let live = not (Fault.crashed f v) in
      if live then Obs.Counter.add_cell c_fault_decisions ~round ~node:v 1;
      match Fault.deliver f ~round:fround ~node:v ?corrupt out.(v) with
      | Fault.Delivered x -> out.(v) <- x
      | Fault.Dropped -> (
        if live then Obs.Counter.add_cell c_fault_drops ~round ~node:v 1;
        match on_drop with
        | Some d -> out.(v) <- d
        | None -> if live then t.missed.(v) <- true)
    done;
    (if equivocable then
       match (corrupt, Fault.equivocation f ~round:fround ~n:(Array.length out)) with
       | Some c, Some (victim, rng) -> out.(victim) <- c rng out.(victim)
       | _ -> ());
    out

let unicast t ?corrupt ?on_drop ~bits responses =
  check_length t responses;
  let round = next_round t in
  Obs.span ~round "net.unicast" (fun () ->
      charge_live_from_prover t ~round bits;
      if Obs.enabled () then Obs.Histo.observe h_msg_bits bits;
      apply_faults t ?corrupt ?on_drop ~round ~equivocable:false ~fresh:false responses)

let broadcast_round t ?corrupt ?on_drop ~bits ~fresh responses =
  check_length t responses;
  let round = next_round t in
  Obs.span ~round "net.broadcast" (fun () ->
      charge_live_from_prover t ~round bits;
      if Obs.enabled () then Obs.Histo.observe h_msg_bits bits;
      apply_faults t ?corrupt ?on_drop ~round ~equivocable:true ~fresh responses)

let broadcast t ?corrupt ?on_drop ~bits responses = broadcast_round t ?corrupt ?on_drop ~bits ~fresh:false responses

let broadcast_uniform t ?corrupt ?on_drop ~bits value =
  broadcast_round t ?corrupt ?on_drop ~bits ~fresh:true (Array.make (n t) value)

(* Crashed neighbors are silent, so there is no copy to compare against.
   The neighbour callback is built once per [neighbors_agree t same] and
   reads the node from a cell, so a check allocates nothing; after the
   first disagreement it calls [same] no more. *)
let neighbors_agree t same =
  let node = ref 0 and ok = ref true in
  let visit u = if !ok && not (crashed t u || same u !node) then ok := false in
  fun v ->
    let row = Graph.neighbors t.graph v in
    node := v;
    ok := true;
    Bitset.iter visit row;
    !ok

(* Each range runs its own [make ()] instance: a node check may carry
   scratch that belongs to one domain. Every node of every range is
   checked, and the verdict is the conjunction, so a split cannot change
   it. *)
let decide_ranges t ~domains make =
  let verdicts =
    Scheduler.map_ranges ~domains ~n:(n t) (fun ~lo ~hi ->
        let out = make () in
        let accepted = ref true in
        for v = lo to hi - 1 do
          if crashed t v then begin
            match t.fault with
            | Some f when Fault.crash_mode f = Fault.Crash_vacuous -> ()
            | _ -> accepted := false
          end
          else if t.missed.(v) then accepted := false
          else if not (out v) then accepted := false
        done;
        !accepted)
  in
  Array.for_all Fun.id verdicts

let decide t out = decide_ranges t ~domains:1 (fun () -> out)
