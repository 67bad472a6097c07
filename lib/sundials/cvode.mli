(** CVODE-style time integration: adaptive BDF with modified Newton for
    stiff problems, an Adams predictor-corrector with fixed-point
    iteration for non-stiff ones, and an adaptive explicit RK3(2).

    High-level control lives here (host side); all heavy lifting is in
    the [rhs] and [lsolve] callbacks, which decide device residency and
    simulated cost. Hooking hypre's AMG-preconditioned CG into [lsolve]
    reproduces the paper's MFEM/hypre/SUNDIALS stack. *)

type stats = {
  mutable nsteps : int;
  mutable nfevals : int;
  mutable nniters : int;  (** Newton / fixed-point iterations *)
  mutable nlsolves : int;
  mutable netf : int;  (** error-test failures *)
  mutable nncf : int;  (** nonlinear-convergence failures *)
}

type rhs = float -> float array -> float array
(** [rhs t y] returns dy/dt. *)

type lsolve = gamma:float -> t:float -> y:float array -> b:float array -> float array
(** Approximate solve of (I - gamma J(t, y)) x = b. *)

exception Too_much_work of string
(** Raised when the step cap is exceeded or the step size underflows. *)

val dense_lsolve : jac:(float -> float array -> Linalg.Dense.t) -> lsolve
(** Direct dense lsolve from an analytic Jacobian. *)

type result = { y : float array; t : float; stats : stats }

val bdf :
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?max_steps:int ->
  rhs:rhs ->
  lsolve:lsolve ->
  t0:float ->
  y0:float array ->
  float ->
  result
(** Adaptive BDF (order-1 start-up, order 2 thereafter, variable step)
    with modified Newton; the local-error estimate is corrector minus the
    quadratic history predictor. [bdf ~rhs ~lsolve ~t0 ~y0 tstop]. *)

val adams :
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?max_steps:int ->
  rhs:rhs ->
  t0:float ->
  y0:float array ->
  float ->
  result
(** Adams-Bashforth/Moulton predictor-corrector with functional
    iteration, for non-stiff problems. *)

val erk23 :
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?max_steps:int ->
  rhs:rhs ->
  t0:float ->
  y0:float array ->
  float ->
  result
(** Adaptive explicit Bogacki-Shampine RK3(2) with an embedded error
    estimate (FSAL) — the ERK path for non-stiff problems. *)
