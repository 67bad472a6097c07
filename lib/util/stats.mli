(** Small descriptive-statistics helpers used by experiment harnesses. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val variance : float array -> float
(** Unbiased sample variance; 0 for fewer than two samples. *)

val stddev : float array -> float

val min_max : float array -> float * float
(** (minimum, maximum).
    @raise Invalid_argument on the empty array. *)

val sum : float array -> float

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [0, 1]; linear interpolation between
    order statistics. Sorts per call with
    [Float.compare]; for repeated queries use {!presort} +
    {!percentile_sorted}.
    @raise Invalid_argument on the empty array or [p] outside [0, 1]. *)

val presort : float array -> float array
(** Sorted copy in [Float.compare] order (total, NaN first), by a stable
    merge sort on unboxed floats. Sort once, then query with
    {!percentile_sorted}. It is bit-identical to [Array.sort
    Float.compare] on a copy except where elements compare equal but
    differ in bits: a mix of [0.0] and [-0.0], or NaNs with different
    payloads, keep their input order here and may land in another order
    there. *)

val percentile_sorted : float array -> float -> float
(** [percentile] on an array already sorted by {!presort}; does not
    re-sort. Raises like {!percentile}. *)

val median : float array -> float

val rel_l2_error : float array -> float array -> float
(** [rel_l2_error a b] = ||a - b|| / ||b|| (plain ||a - b|| when b = 0).
    @raise Invalid_argument if the lengths differ, naming both. *)

val max_abs_diff : float array -> float array -> float
(** Pointwise infinity-norm distance.
    @raise Invalid_argument if the lengths differ, naming both. *)
