(** Krylov solver: conjugate gradients, optionally preconditioned.

    The solve-phase workhorse of hypre (PCG + AMG), the MFEM
    nonlinear-diffusion Newton solves and the matrix-free
    topology-optimization solver. The operator and the preconditioner
    write into caller-supplied vectors, so matrix-free use is direct. *)

type result = {
  x : float array;
  iters : int;
  residual : float;  (** final relative residual ||b - Ax|| / ||b|| *)
  converged : bool;
}

val default_tol : float
(** 1e-10. *)

val cg :
  ?tol:float ->
  ?max_iter:int ->
  ?precond:(float array -> float array -> unit) ->
  op:(float array -> float array -> unit) ->
  float array ->
  float array ->
  result
(** Conjugate gradients on an SPD operator: [cg ~op b x0], where
    [op u y] writes A u into [y] (every entry; pass
    [Csr.spmv_into a] for a matrix). With [precond], [precond r z] must
    write M^-1 r into [z] (every entry) for an SPD M, and the solve is
    PCG, recorded under [method=pcg] in the metrics registry.

    The solve allocates its n-vectors (x, r, p, A p, and z when
    preconditioned) once and updates them in place, so an iteration
    allocates nothing beyond what [op] and [precond] do; the x/r update
    and r·r share one loop, and every loop rounds exactly as the
    separate {!Vec} passes would. The residual is sqrt(r·r) / ||b||.
    Bails out (converged = false, x finite) if the iteration meets a
    zero/negative-curvature direction, or, unpreconditioned, produces
    non-finite values.
    @raise Invalid_argument if [b] and [x0] differ in length. *)

val record : [ `Cg | `Pcg ] -> result -> result
(** [record m r] counts the finished solve [r] in the metrics registry
    under [method=cg] or [method=pcg], as {!cg} does with its own, and
    returns it: for a solver that runs the CG iteration itself. *)
