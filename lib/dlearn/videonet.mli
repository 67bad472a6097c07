(** The Table 3 study: three-stream video action recognition as a
    controlled ensemble experiment. Each stream is a feature generator
    with controlled per-class informativeness (a blind stream aliases the
    class to a neighbour — confidently wrong); stream classifiers and
    combiners are trained for real. Fusion beats every single stream, and
    on the harder set the learned combiners clearly beat averaging (the
    HMDB51 signature). *)

type difficulty = Easy  (** UCF101-like *) | Hard  (** HMDB51-like *)

type dataset = {
  streams : float array array array;  (** stream -> sample -> features *)
  labels : int array;
  classes : int;
  dim : int;
}

type combiner =
  | Single of int
  | Simple_average
  | Weighted_average
  | Logistic_regression  (** stacking on log-probabilities *)
  | Shallow_nn
  | End_to_end  (** single model on concatenated raw features (I3D row) *)

val combiner_name : combiner -> string

type study

val prepare : rng:Icoe_util.Rng.t -> difficulty -> study
(** Generate data, train the three stream classifiers, and compute the
    stacked log-probability features of both splits once, for the
    stacking combiners. *)

val evaluate : rng:Icoe_util.Rng.t -> study -> combiner -> float
(** Test accuracy of a combination approach (trains stacking models
    where needed). *)

val table3 : rng:Icoe_util.Rng.t -> difficulty -> (combiner * float) list
(** The full Table 3 grid for one dataset. *)
