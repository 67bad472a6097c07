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
(** A uniform design at [volfrac] (default 0.4), exponent [penal]
    (default 3).
    @raise Invalid_argument naming the field if [nx] or [ny] is below 1
    or [volfrac] is outside (0, 1], NaN included. *)

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
    (the paper's CUDA matrix-free solve), writing [y]: the row functions
    of [topopt_stubs.c] that {!solve_state} runs. Each cell sums the
    links it has from 0.0 in the order left, right, down, up, then
    takes diag·u minus that sum; a sink is an identity row. Allocates
    nothing.
    @raise Invalid_argument if [u] or [y] is not one entry per cell, or
    if they are the same array. *)

val load : t -> float array

val solve_state : t -> float array * int
(** The state solve from 0 at relative residual 1e-8,
    at most 8·nx·ny iterations: (temperature field, iterations). It is
    {!Linalg.Krylov.cg} without a preconditioner, run as one C loop over
    one {!stencil}: p ← r + βp one row ahead of the apply that reads it,
    p·Ap summed behind each row, then x, r and r·r in one pass. Every
    sum keeps ascending order and every bail-out and the residual are
    [cg]'s, so x and the iteration count are bit-identical to [cg] with
    {!apply} as [~op]; the solve is recorded under [method=cg] like
    one. It allocates what [cg] does, nothing per iteration. *)

val oc_update : t -> float array -> unit
(** [oc_update t u]: sets [t.compliance] from the state [u] and moves
    the design by the filtered optimality-criteria update: each cell by
    at most 0.05 within [rho_min, 1], r·(sens/λ)^0.3, with λ bisected
    60 times to meet the volume constraint. A cell whose q = sens/λ is
    past a per-cell threshold, computed once per call, is set to its
    move limit without the power; the thresholds sit ~3e-10 (relative)
    inside the exact crossing, about 10⁷ times the power's rounding, so
    every density is bit-identical to the full expression's. *)

val optimize : ?iters:int -> t -> float array
(** SIMP iterations with penalization continuation; returns the
    compliance history. *)

val volume : t -> float

val apply_time : cells:int -> Hwsim.Device.t -> textures:bool -> float
