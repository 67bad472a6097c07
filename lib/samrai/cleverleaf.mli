(** CleverLeaf: the 2D compressible-Euler mini-app used to assess the
    SAMRAI port (Table 5). Ideal gas, conservative finite volumes with a
    Rusanov flux on the patch hierarchy's one level. *)

type t = {
  hier : Hierarchy.t;
  dx : float;
  dy : float;
  mutable time : float;
  mutable steps : int;
}

val create : nx:int -> ny:int -> lx:float -> ly:float -> unit -> t
(** The domain split into four patches along its longer axis, each with
    one ghost cell. *)

val init : t -> (x:float -> y:float -> float * float * float * float) -> unit
(** Initialize from primitive variables (rho, u, v, p) at cell centres. *)

val step : t -> float
(** One explicit step at CFL 0.4; returns dt. *)

val run : t -> float -> unit
(** Advance to a physical time, stopping after at most 100 000 steps. *)

val totals : t -> float * float * float * float
(** (mass, x-momentum, y-momentum, energy) — conserved to rounding. *)

val density_slice : t -> float array
(** Density along the mid-height line (Sod validation). *)

val table5_times : cells:int -> steps:int -> (float * float) * (float * float)
(** Table 5 configurations: ((full-node cpu, gpu), (single P9, single
    V100)) simulated seconds; calibrated per the module comments. *)
