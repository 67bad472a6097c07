(** Krylov solvers: CG, preconditioned CG, restarted GMRES.

    The solve-phase workhorses of hypre (PCG + AMG), Cretin's batched
    iterative population solver (GMRES + Jacobi) and the matrix-free
    topology-optimization solver. All methods take the operator as a
    function, so matrix-free use is direct: {!cg} as an in-place
    [op u y], the others as a function returning a fresh vector. *)

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
  op:(float array -> float array -> unit) ->
  float array ->
  float array ->
  result
(** Conjugate gradients on an SPD operator: [cg ~op b x0], where
    [op u y] writes A u into [y] (every entry; pass
    [Csr.spmv_into a] for a matrix). The solve allocates its four
    n-vectors (x, r, p, A p) once and updates them in place, so an
    iteration allocates nothing; the x/r update and r·r share one loop,
    and every loop rounds exactly as the separate {!Vec} passes would.
    Bails out (converged = false, x finite) if the iteration produces
    non-finite values or meets a zero/negative-curvature direction.
    @raise Invalid_argument if [b] and [x0] differ in length. *)

val pcg :
  ?tol:float ->
  ?max_iter:int ->
  op:(float array -> float array) ->
  precond:(float array -> float array) ->
  float array ->
  float array ->
  result
(** Preconditioned CG; [precond r] must return M^-1 r for an SPD M. *)

val gmres :
  ?tol:float ->
  ?max_iter:int ->
  ?restart:int ->
  ?precond:(float array -> float array) ->
  op:(float array -> float array) ->
  float array ->
  float array ->
  result
(** Restarted GMRES(m) with optional right preconditioning. *)
