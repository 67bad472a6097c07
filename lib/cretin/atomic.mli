(** Atomic models for the non-LTE kinetics package: levels (energy,
    statistical weight) and the transitions connecting them. The three
    transition-rate types mirror the three Cretin mini-apps, each with a
    distinct computational profile. *)

type level = { energy : float;  (** above ground, eV *) weight : float }

type transition =
  | Collisional of { upper : int; lower : int; c0 : float }
      (** deexcitation rate coefficient; excitation follows from detailed
          balance *)
  | Radiative of { upper : int; lower : int; a : float }
  | Photo of { upper : int; lower : int; strength : float }
      (** photoexcitation, evaluated by a frequency-quadrature loop *)

type t = { name : string; levels : level array; transitions : transition list }

val n_levels : t -> int

val ladder : int -> t
(** Hydrogen-like ladder (ground-state binding 13.6 eV) with the given
    number of levels (>= 2): collisional coupling (c0 = 1e-8) between
    neighbours, radiative decay to ground.
    Scales from toy to "large atomic model" by the level count. *)

val ladder_with_photo : ?photo_strength:float -> int -> t

val boltzmann : t -> te:float -> float array
(** LTE populations at electron temperature [te] (eV), normalized. *)

val zone_bytes : t -> float
(** Memory footprint of processing one zone (rate matrix + workspaces) —
    the driver of the Sec 4.3 threading/memory trade-off. *)
