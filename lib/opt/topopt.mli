(** SIMP topology optimization with a matrix-free solver — the Opt
    activity's GPU code. Heat-conduction compliance minimization: flux
    enters along the top edge and must funnel to a short sink segment on
    the bottom edge; the optimizer distributes a limited material budget
    (the optimal designs are funnels/trees, the benchmark behind the
    drone-design engine of Fig 5). *)

type t = {
  nx : int;
  ny : int;
  volfrac : float;
  mutable penal : float;  (** SIMP exponent, ramped by continuation *)
  rho : float array;  (** design densities in [rho_min, 1] *)
  mutable compliance : float;
  mutable cg_iters_total : int;
}

val rho_min : float

val create : ?volfrac:float -> ?penal:float -> nx:int -> ny:int -> unit -> t

val idx : t -> int -> int -> int
val is_sink : t -> int -> int -> bool
val conductivity : t -> int -> float

val conductivities : t -> float array
(** {!conductivity} of every cell at the current design and exponent. *)

val apply : t -> cond:float array -> float array -> float array -> unit
(** [apply t ~cond u y]: the matrix-free density-weighted 5-point
    operator (the paper's CUDA matrix-free solve) over the cell
    conductivities [cond] (from {!conductivities}), writing [y].
    Allocates nothing. *)

val load : t -> float array

val solve_state : ?tol:float -> t -> float array * int
(** CG solve of the state equation: (temperature field, iterations). *)

val oc_update : t -> float array -> unit
(** Filtered optimality-criteria design update under the volume
    constraint. *)

val optimize : ?iters:int -> t -> float array
(** SIMP iterations with penalization continuation; returns the
    compliance history. *)

val volume : t -> float

val apply_bandwidth_frac : Hwsim.Device.t -> textures:bool -> float
(** The Sec 4.7 texture-cache lever: scattered reads need the texture
    path on Pascal; Volta's unified L1 makes it moot. *)

val apply_time : cells:int -> Hwsim.Device.t -> textures:bool -> float
