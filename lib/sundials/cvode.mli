(** CVODE-style time integration: adaptive BDF with modified Newton for
    stiff problems, an Adams predictor-corrector with fixed-point
    iteration for non-stiff ones, and fixed-step explicit baselines.

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

val fd_dense_lsolve : rhs:rhs -> lsolve
(** Direct dense lsolve with a finite-difference Jacobian of [rhs]. *)

type result = { y : float array; t : float; stats : stats }

val bdf :
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?max_steps:int ->
  ?newton_maxiters:int ->
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
  ?fp_maxiters:int ->
  rhs:rhs ->
  t0:float ->
  y0:float array ->
  float ->
  result
(** Adams-Bashforth/Moulton predictor-corrector with functional
    iteration, for non-stiff problems. *)

val rk4 : rhs:rhs -> t0:float -> y0:float array -> steps:int -> float -> float array
(** Classic fixed-step RK4 baseline. *)

val euler : rhs:rhs -> t0:float -> y0:float array -> steps:int -> float -> float array
(** Forward Euler baseline (stability comparisons). *)

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

(** {1 Checkpoint/resume}

    Thin state-capture helpers for the fault layer
    ({!Icoe_fault.Checkpoint}): a checkpoint is the integrator's
    mathematical state (t, y). Resuming restarts the method from that
    state — the step-size/order history is rebuilt, exactly as a real
    CVODE restart from a saved vector would, so the resumed solution
    agrees with an uninterrupted run to integration tolerance (not bit
    for bit). *)

type checkpoint = { ck_t : float; ck_y : float array }

val checkpoint : t:float -> y:float array -> checkpoint
(** Copies [y]. *)

val checkpoint_of_result : result -> checkpoint

val resume_bdf :
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?max_steps:int ->
  ?newton_maxiters:int ->
  rhs:rhs ->
  lsolve:lsolve ->
  checkpoint ->
  float ->
  result
(** [resume_bdf ~rhs ~lsolve ck tstop] = {!bdf} from [(ck.ck_t, ck.ck_y)]. *)
