(** Deterministic, splittable pseudo-random streams (splitmix64).

    Every stochastic component of the workload takes an explicit [t] so
    that tests and experiments are exactly reproducible across runs and
    machines. *)

type t
(** A mutable random stream. *)

val create : int -> t
(** [create seed] makes a fresh stream; equal seeds give equal streams. *)

val split : t -> t
(** Child stream whose draws never perturb the parent's future draws. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi]: uniform in [lo, hi). *)

val int : t -> int -> int
(** [int t n]: uniform in [0, n). Raises [Invalid_argument] unless
    [n > 0]. Bias-free: the top
    partial bucket of the underlying 62-bit draw is rejected and redrawn
    rather than folded over small remainders. *)

val bool : t -> bool

val gaussian : t -> float
(** Standard normal (Box-Muller). *)

val normal : t -> mu:float -> sigma:float -> float

val exponential : t -> rate:float -> float
(** Exponential with mean [1/rate]. Raises [Invalid_argument] unless
    [rate > 0]. *)

val categorical : t -> float array -> int
(** Sample an index proportionally to unnormalized nonnegative weights.
    Never returns a zero-weight trailing index, whatever float rounding
    does to the partial sums. *)

val categorical_from : float -> float array -> int
(** [categorical_from u weights]: the pure sampler behind [categorical],
    drawing at quantile [u] in [0, 1). Raises [Invalid_argument] when [u]
    is outside [0, 1) or the weights do not sum to a positive total. *)

val shuffle : t -> 'a array -> unit
(** Fisher-Yates shuffle in place. *)
