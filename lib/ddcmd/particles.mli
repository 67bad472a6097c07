(** Particle store in struct-of-arrays layout with a periodic cubic box
    (the locality layout the ddcMD port converted to). Components are
    flat float64 {!Icoe_util.Fbuf} Bigarrays, read and written with
    unchecked single-load access in the hot loops. Positions are
    wrapped into [0, box). *)

type t = {
  n : int;
  mutable box : float;
  x : Icoe_util.Fbuf.t;
  y : Icoe_util.Fbuf.t;
  z : Icoe_util.Fbuf.t;
  vx : Icoe_util.Fbuf.t;
  vy : Icoe_util.Fbuf.t;
  vz : Icoe_util.Fbuf.t;
  fx : Icoe_util.Fbuf.t;
  fy : Icoe_util.Fbuf.t;
  fz : Icoe_util.Fbuf.t;
  mass : Icoe_util.Fbuf.t;
  species : int array;
}

val create : n:int -> box:float -> t
(** Raises [Invalid_argument] unless [n > 0] and [box] is positive and
    finite. *)

val wrap : t -> float -> float
val wrap_all : t -> unit

val min_image : t -> float -> float
(** Minimum-image displacement component. *)

val dist2 : t -> int -> int -> float
(** Squared minimum-image distance. *)

val lattice_init : t -> unit
(** Cubic-lattice placement (stable non-overlapping start). *)

val thermalize : t -> rng:Icoe_util.Rng.t -> temp:float -> unit
(** Maxwell-Boltzmann velocities (kB = 1), COM drift removed. *)

val kinetic_energy : t -> float
val temperature : t -> float
val total_momentum : t -> float * float * float
val zero_forces : t -> unit
