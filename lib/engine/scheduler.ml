module Obs = Ids_obs.Obs

(* One span per claimed index, labeled with the index as the round. Each
   domain appends to its own Domain.DLS shard, registered with Obs for the
   life of the process; Obs.snapshot/spans read them once the batch is
   quiescent. *)
let traced f i = Obs.span ~round:i "scheduler.chunk" (fun () -> f i)

(* --- the pool ----------------------------------------------------------------

   Worker domains are spawned on the first call that wants them and then
   park on [posted] between batches. A batch offers [seats] to helpers; a
   waking worker takes a seat and runs the batch body, which claims indices
   until none are left. The caller runs the same body, closes the seats, and
   waits on [drained] until no helper is inside: every result slot is then
   written, and the mutex hand-off orders those writes before the caller's
   reads. One batch runs at a time ([busy]). *)

type batch = { body : unit -> unit; mutable seats : int }

let mu = Mutex.create ()
let posted = Condition.create ()
let drained = Condition.create ()
let current : batch option ref = ref None
let helping = ref 0
let stopping = ref false
let workers : unit Domain.t list ref = ref []
let busy = Atomic.make false

(* Called and returns with [mu] held. *)
let rec park () =
  match !current with
  | Some b when b.seats > 0 ->
    b.seats <- b.seats - 1;
    incr helping;
    Mutex.unlock mu;
    b.body ();
    Mutex.lock mu;
    decr helping;
    if !helping = 0 then Condition.broadcast drained;
    park ()
  | _ ->
    if not !stopping then begin
      Condition.wait posted mu;
      park ()
    end

let worker () = Mutex.protect mu park

let shutdown () =
  let ws =
    Mutex.protect mu (fun () ->
        stopping := true;
        Condition.broadcast posted;
        let ws = !workers in
        workers := [];
        ws)
  in
  List.iter Domain.join ws

(* With [mu] held. *)
let grow want =
  if !workers = [] && want > 0 then at_exit shutdown;
  while List.length !workers < want do
    workers := Domain.spawn worker :: !workers
  done

let size () = Mutex.protect mu (fun () -> List.length !workers)

let run_batch ~helpers body =
  let b = { body; seats = helpers } in
  Mutex.protect mu (fun () ->
      grow helpers;
      current := Some b;
      Condition.broadcast posted);
  body ();
  Mutex.protect mu (fun () ->
      b.seats <- 0;
      current := None;
      while !helping > 0 do
        Condition.wait drained mu
      done)

let map_range ~domains ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then [||]
  else begin
    let f = if Obs.enabled () then traced f else f in
    let helpers = Int.min (Int.max 1 domains) n - 1 in
    (* Inline when one domain is asked for, and when a batch is already
       running: a call from inside a pool task, or from a second caller. *)
    if helpers = 0 || not (Atomic.compare_and_set busy false true) then Array.init n (fun i -> f (lo + i))
    else
      Fun.protect
        ~finally:(fun () -> Atomic.set busy false)
        (fun () ->
          (* Dynamic index hand-out: every slot is written by exactly one
             participant, whichever claimed its index. A participant that
             raises stops claiming; the first exception is kept. *)
          let results = Array.make n None in
          let next = Atomic.make 0 and failure = Atomic.make None in
          let body () =
            let rec loop () =
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                results.(i) <- Some (f (lo + i));
                loop ()
              end
            in
            try loop () with e -> ignore (Atomic.compare_and_set failure None (Some e))
          in
          run_batch ~helpers body;
          match Atomic.get failure with
          | Some e -> raise e
          | None -> Array.map (function Some v -> v | None -> assert false) results)
  end

(* At least [grain] indices per range and up to [per_domain] ranges per
   domain. Dynamic hand-out only evens out the domains' speeds down to one
   range: with a few long ranges, a domain slowed for a moment (the host
   took its core, a late wake-up) leaves the other idle at the end of the
   batch for up to a whole range, and how long depends on the timing. With
   many short ones the other domain takes the slack, and the batch ends
   within one short range of balanced. Per-range set-up is a few words. *)
let grain = 8
let per_domain = 64

let ranges ~domains ~n =
  if n <= 0 then [||]
  else begin
    let count = if domains <= 1 then 1 else Int.max 1 (Int.min (per_domain * domains) (n / grain)) in
    Array.init count (fun r -> (r * n / count, (r + 1) * n / count))
  end

let map_ranges ~domains ~n f =
  match ranges ~domains ~n with
  | [| (lo, hi) |] -> [| f ~lo ~hi |]
  | rs -> map_range ~domains ~lo:0 ~hi:(Array.length rs) (fun r -> f ~lo:(fst rs.(r)) ~hi:(snd rs.(r)))
