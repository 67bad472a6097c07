(** SW4 computational grid: 2D plane-strain elastic medium. Fields are
    flat row-major arrays (i + nx*j); the material model (rho, lambda, mu)
    varies per point, which is what lets the Hayward-like layered-basin
    scenario exist. *)

type t = {
  nx : int;
  ny : int;
  h : float;  (** grid spacing, metres *)
  rho : float array;
  lambda : float array;
  mu : float array;
}

val idx : t -> int -> int -> int

val create : nx:int -> ny:int -> h:float -> t
(** Requires at least 9 points per side (4th-order stencils + margins);
    raises [Invalid_argument] otherwise. *)

val set_material : t -> (x:float -> y:float -> float * float * float) -> unit
(** Material from physical coordinates: (rho, vp, vs). Raises
    [Invalid_argument] where [vp < sqrt 2 *. vs] (negative Lame lambda). *)

val homogeneous : t -> rho:float -> vp:float -> vs:float -> unit

val p_speed : t -> int -> int -> float
val s_speed : t -> int -> int -> float
val max_p_speed : t -> float

val stable_dt : ?cfl:float -> t -> float
(** CFL-stable timestep for the 4th-order scheme (default CFL 0.5). *)
