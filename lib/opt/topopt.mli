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

type stencil
(** The state operator of one solve: each cell's four link coefficients
    (left, right, down, up), its diagonal and its sink flag, computed
    from the design and exponent it was built at. *)

val stencil : t -> stencil
(** Build the operator at the current design and exponent ({!solve_state}
    builds one per solve). *)

val apply : stencil -> float array -> float array -> unit
(** [apply s u y]: the matrix-free density-weighted 5-point operator
    (the paper's CUDA matrix-free solve), writing [y] — the [~op] of
    {!Linalg.Krylov.cg}. Interior cells sum their four links without a
    branch, in the order edge cells use, so every cell rounds as if
    summed link by link. Allocates nothing.
    @raise Invalid_argument if [u] or [y] is not one entry per cell. *)

val load : t -> float array

val solve_state : ?tol:float -> t -> float array * int
(** In-place CG ({!Linalg.Krylov.cg}) over one {!stencil}:
    (temperature field, iterations). *)

val oc_update : t -> float array -> unit
(** Filtered optimality-criteria design update under the volume
    constraint. *)

val optimize : ?iters:int -> t -> float array
(** SIMP iterations with penalization continuation; returns the
    compliance history. *)

val volume : t -> float

val apply_time : cells:int -> Hwsim.Device.t -> textures:bool -> float
