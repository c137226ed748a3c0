(** Wald's sequential probability ratio test for a Bernoulli rate.

    Definition 2 poses threshold questions — "is the acceptance probability
    at least 2/3 (YES instances) or at most 1/3 (NO instances)?" — for which
    a fixed trial budget is wasteful: when the true rate sits far from the
    thresholds (the common case: honest provers accept with probability near
    1, committed cheats near 0), a handful of trials already decides the
    question at the requested error level. The SPRT stops as soon as the
    cumulative log-likelihood ratio leaves the [(log B, log A)] corridor. *)

type plan

type decision =
  | Above  (** Evidence favours rate >= p1 (e.g. a YES instance). *)
  | Below  (** Evidence favours rate <= p0 (e.g. a NO instance). *)

val plan : ?alpha:float -> ?beta:float -> p0:float -> p1:float -> unit -> plan
(** [plan ~p0 ~p1 ()] tests H0: rate <= [p0] against H1: rate >= [p1],
    [0 < p0 < p1 < 1], with type-I error [alpha] and type-II error [beta]
    (both default [1e-3]). Raises [Invalid_argument] on a bad corridor. *)

val definition2 : ?alpha:float -> ?beta:float -> unit -> plan
(** The paper's thresholds: [p0 = 1/3], [p1 = 2/3]. *)

val decide : plan -> Accum.t -> decision option
(** [decide plan acc] is [Some d] once the accumulated evidence crosses a
    boundary, [None] while the test must continue. Depends only on the
    accumulator's [trials] and [accepts], so it is deterministic in the
    trial prefix regardless of how the trials were scheduled. *)
