(** Wilson score confidence intervals for a binomial proportion.

    Unlike the Wald interval, the Wilson interval never escapes [0, 1] and
    behaves sensibly at the extreme rates (0 and 1) the protocol experiments
    routinely produce. *)

val z95 : float
(** Normal quantile for a two-sided 95% interval (1.96). *)

val interval : ?z:float -> accepts:int -> trials:int -> unit -> float * float
(** [interval ~accepts ~trials ()] is the Wilson score interval [(lo, hi)]
    for the acceptance probability, at confidence [z] (default {!z95}).
    [trials = 0] yields the vacuous interval [(0, 1)]; [lo] is exactly [0.]
    when [accepts = 0] and [hi] exactly [1.] when [accepts = trials]. Raises
    [Invalid_argument] on negative counts or [accepts > trials]. *)

val width : ?z:float -> accepts:int -> trials:int -> unit -> float
(** [hi - lo] of {!interval}; shrinks like [1/sqrt trials]. *)
