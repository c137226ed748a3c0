(** Deterministic work scheduling across OCaml 5 domains.

    Work items are identified by an integer index; which domain evaluates an
    index is arbitrary (an atomic counter hands out indices dynamically) but
    results land in an array slot determined by the index alone, so the
    returned array is identical for every worker count — provided [f] itself
    depends only on its index (the engine guarantees this by keying every
    trial on its seed, never on domain identity).

    {2 The pool}

    Helpers come from one process-wide pool of worker domains. It starts
    empty: the first call that asks for [d > 1] domains spawns [d - 1]
    workers, and a later call asking for more spawns the difference. A
    call for [d] domains uses [d - 1] of them, whatever the pool's size.
    Between calls the workers park on a condition variable (they do not
    spin) and they are joined at exit. Calls with [domains <= 1] never
    start the pool.

    {b Nesting.} One batch runs at a time. A call made while a batch runs —
    from inside one of its tasks, on a worker or on the calling domain, or
    from another domain — runs inline in its caller, so trial-level and
    node-level parallelism never nest and never deadlock.

    {b Fork.} OCaml 5 refuses [Unix.fork] while another domain is running,
    and once the pool has started its workers run until exit. So a process
    that forks must never make a multi-domain call first. The fork sites
    keep to that: [Ids_serve.Pool.spawn] (under [Server.run]) forks workers
    that run [Catalog.execute] at [~domains:1], and the daemon itself runs
    no trials; [bench/serve], [bench/telemetry] and the repository
    benchmark's [serve_mix] (one workload per process) fork the daemon
    and run their in-process oracles through [Catalog] at [~domains:1];
    [test_serve_fork] is its own binary for the same reason, and checks
    that one-domain calls leave the pool unstarted. *)

val map_range : domains:int -> lo:int -> hi:int -> (int -> 'a) -> 'a array
(** [map_range ~domains ~lo ~hi f] is [[| f lo; f (lo+1); ...; f (hi-1) |]],
    evaluated by up to [domains] domains (the calling domain participates;
    [domains <= 1] runs entirely in the caller). An exception raised by any
    [f] is re-raised once every participant has left the batch; the pool
    stays usable. *)

val ranges : domains:int -> n:int -> (int * int) array
(** The node ranges [(lo, hi)] that {!map_ranges} splits [\[0, n)] into, in
    order and of near-equal sizes: one range when [domains <= 1], else
    [n / 8] ranges (at least 8 indices each), capped at [64 * domains] and
    at least one. Many short ranges keep a batch balanced when one domain
    runs slow for a while: the others take its share, and the batch ends
    within one short range of the last domain. *)

val map_ranges : domains:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [map_ranges ~domains ~n f] is [f] applied to each of
    [ranges ~domains ~n] through {!map_range}, results in range order. A
    single range is a direct call. *)

val size : unit -> int
(** Worker domains the pool holds now: [0] until a multi-domain call. *)
