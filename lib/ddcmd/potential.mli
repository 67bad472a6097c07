(** The generic pair-processing infrastructure (Sec 4.6): "a templatized
    generic pair processing infrastructure that can be used to efficiently
    implement a diverse set of potential forms". A potential is a record
    of closures over (species_i, species_j, r^2); the force loop is
    written once, any functional form plugs in. *)

type t = {
  name : string;
  cutoff : float;
  eval_into : si:int -> sj:int -> Icoe_util.Fbuf.t -> int -> unit;
      (** 3-wide slot protocol: reads r^2 from [off], writes energy at
          [off + 1] and f_over_r at [off + 2]; the force on i is
          f_over_r * (r_i - r_j). r^2 travels through the slot rather
          than as an argument because this is an indirect call — without
          flambda a float argument to an unknown function is boxed on
          every pair. The force kernel hands each chunk its own slot, so
          a pair evaluation allocates nothing. *)
}

val eval : t -> si:int -> sj:int -> r2:float -> float * float
(** Tuple-returning wrapper over [eval_into] (allocates; tests and
    single-pair probes only). *)

val lennard_jones :
  ?epsilon:float -> ?sigma:float -> ?cutoff:float -> unit -> t
(** 12-6 LJ, energy shifted to zero at the cutoff (continuous). The
    cutoff is in units of sigma. *)

val martini :
  epsilon:float array array -> sigma:float array array -> ?cutoff:float ->
  unit -> t
(** Coarse-grained LJ with per-species-pair parameters (the Martini-style
    force field the MuMMI micro model uses). *)

val soft_sphere : ?epsilon:float -> ?sigma:float -> unit -> t
(** Purely repulsive (fast smoke tests). *)
