external now_ns : unit -> int = "ids_obs_clock_ns" [@@noalloc]

let enabled_flag =
  ref
    (match Sys.getenv_opt "IDS_TRACE" with
    | Some s -> String.trim s <> "" && String.trim s <> "0"
    | None -> false)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Process-epoch anchor.  [now_ns] is CLOCK_MONOTONIC with an unspecified
   origin, so raw timestamps from two processes are only comparable because
   the clock is machine-wide; what is NOT shared is any notion of "when this
   process started".  [epoch] pins that: captured at module initialization,
   re-captured on demand.  A forked worker inherits the parent's anchor, so
   workers that ship spans relative to their own birth call [refresh_epoch]
   first thing after the fork. *)
let epoch = ref (now_ns ())
let epoch_ns () = !epoch
let refresh_epoch () = epoch := now_ns ()

type span_record = {
  sname : string;
  sround : int;
  snode : int;
  sdomain : int;
  start_ns : int;
  dur_ns : int;
}

(* Per-domain shard. Span records go to a growable array capped at
   [max_spans]; metric cells live in int-keyed hash tables (keys pack the
   (id, round, node) triple so the hot path allocates nothing). Only the
   owning domain writes a shard; merges happen once the scheduler batch it
   wrote in is quiescent (or from the owner itself), so no lock is needed
   on the path. *)
type shard = {
  mutable sp : span_record array;
  mutable nsp : int;
  mutable dropped : int;
  mutable ops : int;  (* instrumentation calls recorded; feeds the overhead bench *)
  cells : (int, int ref) Hashtbl.t;
  hcells : (int, int ref) Hashtbl.t;
}

let max_spans = 1 lsl 18

let shards : shard list ref = ref []
let shards_mu = Mutex.create ()

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        { sp = [||]; nsp = 0; dropped = 0; ops = 0; cells = Hashtbl.create 64; hcells = Hashtbl.create 16 }
      in
      Mutex.lock shards_mu;
      shards := s :: !shards;
      Mutex.unlock shards_mu;
      s)

let shard () = Domain.DLS.get shard_key

let record_span r =
  let sh = shard () in
  sh.ops <- sh.ops + 1;
  let n = sh.nsp in
  let cap = Array.length sh.sp in
  if n >= max_spans then sh.dropped <- sh.dropped + 1
  else begin
    if n >= cap then begin
      let sp = Array.make (Int.min max_spans (Int.max 256 (2 * cap))) r in
      Array.blit sh.sp 0 sp 0 n;
      sh.sp <- sp
    end;
    sh.sp.(n) <- r;
    sh.nsp <- n + 1
  end

let span ?(round = -1) ?(node = -1) name f =
  if not !enabled_flag then f ()
  else begin
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      record_span
        { sname = name;
          sround = round;
          snode = node;
          sdomain = (Domain.self () :> int);
          start_ns = t0;
          dur_ns = t1 - t0
        }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Cell keys pack (metric id, round, node) into one int: 11 bits of id, 20
   of round and 31 of node (past Graph_io's 2^24 nodes), round and node
   stored off by one so -1 (unlabeled) maps to 0. *)
let pack id round node = (id lsl 51) lor ((round + 1) lsl 31) lor (node + 1)
let unpack key = (key lsr 51, ((key lsr 31) land 0xfffff) - 1, (key land 0x7fffffff) - 1)
let label_fits ~round ~node = round >= -1 && round < 0xfffff && node >= -1 && node < 0x7fffffff

let bump sh tbl key k =
  sh.ops <- sh.ops + 1;
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + k
  | None -> Hashtbl.add tbl key (ref k)

(* Metric registries: name per id, appended under a mutex at module
   initialization time (Counter.make / Histo.make at top level of the
   instrumented modules). *)
let names : (int, string) Hashtbl.t = Hashtbl.create 32
let next_id = ref 0
let names_mu = Mutex.create ()

(* Metric filter: which counters/histos stay live while instrumentation is
   enabled.  [None] = everything (the IDS_TRACE deep-trace mode).  A worker
   in service-telemetry mode keeps only the cheap wire-ledger prefixes
   (e.g. ["net."]) so the inner-loop metrics (mont.redc ticks once per
   modular reduction) cost nothing: each metric holds a [live] flag
   recomputed when the filter changes, and the hot path pays one extra
   dereference only when already enabled.  Spans are not filtered — the
   span sites are all low-frequency. *)
let filter : string list option ref = ref None

let filter_matches name = function
  | None -> true
  | Some prefixes ->
    List.exists
      (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
      prefixes

let lives : (string * bool ref) list ref = ref []

let set_metric_filter f =
  Mutex.lock names_mu;
  filter := f;
  List.iter (fun (n, live) -> live := filter_matches n f) !lives;
  Mutex.unlock names_mu

let register name =
  Mutex.protect names_mu (fun () ->
      let id = !next_id in
      if id >= 1 lsl 11 then invalid_arg "Obs: metric id space exhausted";
      incr next_id;
      Hashtbl.add names id name;
      let live = ref (filter_matches name !filter) in
      lives := (name, live) :: !lives;
      (id, live))

module Counter = struct
  type t = { id : int; live : bool ref }

  let make name =
    let id, live = register name in
    { id; live }

  let add_cell c ~round ~node k =
    if !enabled_flag && !(c.live) then
      if not (label_fits ~round ~node) then
        invalid_arg "Obs.Counter.add_cell: round or node label out of range"
      else
        let sh = shard () in
        bump sh sh.cells (pack c.id round node) k

  let add c k =
    if !enabled_flag && !(c.live) then
      let sh = shard () in
      bump sh sh.cells (pack c.id (-1) (-1)) k

  let live c = !enabled_flag && !(c.live)
end

module Histo = struct
  type t = { id : int; live : bool ref }

  let make name =
    let id, live = register name in
    { id; live }

  let bit_length v =
    let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let bucket_of v = if v <= 0 then 0 else bit_length v

  let observe h v =
    if !enabled_flag && !(h.live) then
      let sh = shard () in
      bump sh sh.hcells (pack h.id (bucket_of v) (-1)) 1
end

(* --- merge & export ---------------------------------------------------------- *)

type round_row = { round : int; sum : int; max_node : int }
type counter_snapshot = { cname : string; total : int; rounds : round_row list }
type histo_snapshot = { hname : string; buckets : (int * int) list }
type snapshot = { counters : counter_snapshot list; histos : histo_snapshot list; spans_dropped : int }

let all_shards () =
  Mutex.lock shards_mu;
  let l = !shards in
  Mutex.unlock shards_mu;
  l

let name_of id = match Hashtbl.find_opt names id with Some n -> n | None -> Printf.sprintf "metric#%d" id

let merge_cells field =
  let merged : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun sh ->
      Hashtbl.iter
        (fun key r ->
          let prev = Option.value (Hashtbl.find_opt merged key) ~default:0 in
          Hashtbl.replace merged key (prev + !r))
        (field sh))
    (all_shards ());
  merged

let dropped_total () = List.fold_left (fun a sh -> a + sh.dropped) 0 (all_shards ())

(* Build a snapshot from already-merged (or differenced) cell tables; the
   public [snapshot] and the delta path [since] share this. *)
let snapshot_of_tables ~cells ~hcells ~spans_dropped =
  let merged = cells in
  (* Group cells by counter name (two registrations of one name merge). *)
  let by_name : (string, (int * int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key total ->
      let id, round, node = unpack key in
      let name = name_of id in
      match Hashtbl.find_opt by_name name with
      | Some l -> l := (round, node, total) :: !l
      | None -> Hashtbl.add by_name name (ref [ (round, node, total) ]))
    merged;
  let counters =
    Hashtbl.fold
      (fun cname cells acc ->
        let total = List.fold_left (fun a (_, _, v) -> a + v) 0 !cells in
        let rounds_tbl : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (round, _, v) ->
            if round >= 0 then begin
              let sum, mx = Option.value (Hashtbl.find_opt rounds_tbl round) ~default:(0, 0) in
              Hashtbl.replace rounds_tbl round (sum + v, Int.max mx v)
            end)
          !cells;
        let rounds =
          Hashtbl.fold (fun round (sum, max_node) l -> { round; sum; max_node } :: l) rounds_tbl []
          |> List.sort (fun a b -> compare a.round b.round)
        in
        { cname; total; rounds } :: acc)
      by_name []
    |> List.sort (fun a b -> compare a.cname b.cname)
  in
  let hmerged = hcells in
  let hby_name : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun key count ->
      let id, bucket, _ = unpack key in
      let name = name_of id in
      match Hashtbl.find_opt hby_name name with
      | Some l -> l := (bucket, count) :: !l
      | None -> Hashtbl.add hby_name name (ref [ (bucket, count) ]))
    hmerged;
  let histos =
    Hashtbl.fold
      (fun hname buckets acc -> { hname; buckets = List.sort compare !buckets } :: acc)
      hby_name []
    |> List.sort (fun a b -> compare a.hname b.hname)
  in
  { counters; histos; spans_dropped }

let snapshot () =
  snapshot_of_tables
    ~cells:(merge_cells (fun sh -> sh.cells))
    ~hcells:(merge_cells (fun sh -> sh.hcells))
    ~spans_dropped:(dropped_total ())

(* --- delta windows ----------------------------------------------------------- *)

(* A checkpoint is a deep copy of the merged cell tables.  Deltas are taken
   at cell granularity — (counter, round, node) — rather than by subtracting
   snapshots, because a snapshot's per-round [max_node] is a max over
   cumulative cells and is not subtractable; differencing the cells first
   makes every field of the resulting window snapshot exact for that
   window. *)
type checkpoint = {
  ck_cells : (int, int) Hashtbl.t;
  ck_hcells : (int, int) Hashtbl.t;
  ck_dropped : int;
}

let checkpoint () =
  { ck_cells = merge_cells (fun sh -> sh.cells);
    ck_hcells = merge_cells (fun sh -> sh.hcells);
    ck_dropped = dropped_total ();
  }

let table_diff cur prev =
  let d = Hashtbl.create (Hashtbl.length cur) in
  Hashtbl.iter
    (fun key v ->
      let before = Option.value (Hashtbl.find_opt prev key) ~default:0 in
      if v <> before then Hashtbl.add d key (v - before))
    cur;
  d

let since cp =
  snapshot_of_tables
    ~cells:(table_diff (merge_cells (fun sh -> sh.cells)) cp.ck_cells)
    ~hcells:(table_diff (merge_cells (fun sh -> sh.hcells)) cp.ck_hcells)
    ~spans_dropped:(dropped_total () - cp.ck_dropped)

(* --- snapshot algebra -------------------------------------------------------- *)

let empty = { counters = []; histos = []; spans_dropped = 0 }

let merge_rounds ra rb =
  let tbl : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let sum, mx = Option.value (Hashtbl.find_opt tbl r.round) ~default:(0, 0) in
      Hashtbl.replace tbl r.round (sum + r.sum, Int.max mx r.max_node))
    (ra @ rb);
  Hashtbl.fold (fun round (sum, max_node) l -> { round; sum; max_node } :: l) tbl []
  |> List.sort (fun a b -> compare a.round b.round)

let merge_buckets ba bb =
  let tbl : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b, c) ->
      Hashtbl.replace tbl b (Option.value (Hashtbl.find_opt tbl b) ~default:0 + c))
    (ba @ bb);
  Hashtbl.fold (fun b c l -> (b, c) :: l) tbl [] |> List.sort compare

let merge a b =
  let ctbl : (string, counter_snapshot) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt ctbl c.cname with
      | None -> Hashtbl.replace ctbl c.cname c
      | Some p ->
        Hashtbl.replace ctbl c.cname
          { cname = c.cname; total = p.total + c.total; rounds = merge_rounds p.rounds c.rounds })
    (a.counters @ b.counters);
  let htbl : (string, histo_snapshot) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun h ->
      match Hashtbl.find_opt htbl h.hname with
      | None -> Hashtbl.replace htbl h.hname h
      | Some p ->
        Hashtbl.replace htbl h.hname
          { hname = h.hname; buckets = merge_buckets p.buckets h.buckets })
    (a.histos @ b.histos);
  { counters =
      Hashtbl.fold (fun _ c l -> c :: l) ctbl [] |> List.sort (fun x y -> compare x.cname y.cname);
    histos =
      Hashtbl.fold (fun _ h l -> h :: l) htbl [] |> List.sort (fun x y -> compare x.hname y.hname);
    spans_dropped = a.spans_dropped + b.spans_dropped
  }

let counter_total s name =
  match List.find_opt (fun c -> c.cname = name) s.counters with
  | Some c -> c.total
  | None -> 0

let spans () =
  let all =
    List.concat_map (fun sh -> Array.to_list (Array.sub sh.sp 0 sh.nsp)) (all_shards ())
  in
  List.sort
    (fun a b ->
      let c = compare a.sname b.sname in
      if c <> 0 then c
      else
        let c = compare a.sround b.sround in
        if c <> 0 then c
        else
          let c = compare a.snode b.snode in
          if c <> 0 then c else compare (a.start_ns, a.dur_ns) (b.start_ns, b.dur_ns))
    all

let ops_count () = List.fold_left (fun a sh -> a + sh.ops) 0 (all_shards ())

let reset_metrics () =
  List.iter
    (fun sh ->
      Hashtbl.reset sh.cells;
      Hashtbl.reset sh.hcells)
    (all_shards ())

let reset () =
  (* Clear every registered shard in place. Each domain keeps its shard in
     Domain.DLS for life, so unregistering a parked pool worker's shard
     would lose every span it records later. *)
  List.iter
    (fun sh ->
      sh.sp <- [||];
      sh.nsp <- 0;
      sh.dropped <- 0;
      sh.ops <- 0;
      Hashtbl.reset sh.cells;
      Hashtbl.reset sh.hcells)
    (all_shards ())

let snapshot_json s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"counters\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "{\"name\":%S,\"total\":%d,\"rounds\":[" c.cname c.total);
      List.iteri
        (fun j r ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "[%d,%d,%d]" r.round r.sum r.max_node))
        c.rounds;
      Buffer.add_string buf "]}")
    s.counters;
  Buffer.add_string buf "],\"histos\":[";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "{\"name\":%S,\"buckets\":[" h.hname);
      List.iteri
        (fun j (b, c) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "[%d,%d]" b c))
        h.buckets;
      Buffer.add_string buf "]}")
    s.histos;
  Buffer.add_string buf (Printf.sprintf "],\"spans_dropped\":%d}" s.spans_dropped);
  Buffer.contents buf

(* --- codecs ------------------------------------------------------------------ *)

(* Inverse of [snapshot_json].  The reader is strict about shape (every
   field of the writer must be present and well-typed) so a torn or
   corrupted frame surfaces as [Error] at the boundary instead of a partial
   snapshot polluting an aggregate. *)

exception Bad of string

let want what = function Some v -> v | None -> raise (Bad what)

let snapshot_of_json j =
  try
    let counters =
      want "counters" (Option.bind (Json.member "counters" j) Json.to_list)
      |> List.map (fun c ->
             { cname = want "counter name" (Option.bind (Json.member "name" c) Json.to_string);
               total = want "counter total" (Option.bind (Json.member "total" c) Json.to_int);
               rounds =
                 want "counter rounds" (Option.bind (Json.member "rounds" c) Json.to_list)
                 |> List.map (fun r ->
                        match Option.map (List.map Json.to_int) (Json.to_list r) with
                        | Some [ Some round; Some sum; Some max_node ] -> { round; sum; max_node }
                        | _ -> raise (Bad "round row"))
             })
    in
    let histos =
      want "histos" (Option.bind (Json.member "histos" j) Json.to_list)
      |> List.map (fun h ->
             { hname = want "histo name" (Option.bind (Json.member "name" h) Json.to_string);
               buckets =
                 want "histo buckets" (Option.bind (Json.member "buckets" h) Json.to_list)
                 |> List.map (fun b ->
                        match Option.map (List.map Json.to_int) (Json.to_list b) with
                        | Some [ Some bucket; Some count ] -> (bucket, count)
                        | _ -> raise (Bad "bucket pair"))
             })
    in
    let spans_dropped =
      want "spans_dropped" (Option.bind (Json.member "spans_dropped" j) Json.to_int)
    in
    Ok { counters; histos; spans_dropped }
  with Bad what -> Error (Printf.sprintf "snapshot: bad or missing %s" what)

let snapshot_of_string s =
  match Json.parse s with
  | Error e -> Error ("snapshot: " ^ e)
  | Ok j -> snapshot_of_json j

(* Span wire codec: a JSON array of [[name, round, node, domain, start, dur]]
   rows.  [spans_json ~epoch] stores start times relative to [epoch] (the
   shipping process's anchor); [spans_of_json] returns them as stored — the
   collector re-bases by adding the epoch that traveled with the frame. *)

let spans_json ~epoch sps =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "[%S,%d,%d,%d,%d,%d]" s.sname s.sround s.snode s.sdomain
           (s.start_ns - epoch) s.dur_ns))
    sps;
  Buffer.add_char buf ']';
  Buffer.contents buf

let spans_of_json j =
  try
    Ok
      (want "spans" (Json.to_list j)
      |> List.map (fun row ->
             match Json.to_list row with
             | Some [ n; r; nd; d; t; u ] ->
               { sname = want "span name" (Json.to_string n);
                 sround = want "span round" (Json.to_int r);
                 snode = want "span node" (Json.to_int nd);
                 sdomain = want "span domain" (Json.to_int d);
                 start_ns = want "span start" (Json.to_int t);
                 dur_ns = want "span dur" (Json.to_int u)
               }
             | _ -> raise (Bad "span row")))
  with Bad what -> Error (Printf.sprintf "spans: bad or missing %s" what)
