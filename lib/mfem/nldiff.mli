(** The paper's integrated math-library benchmark (Sec 4.10.4): the
    nonlinear diffusion problem u_t = div((1 + u^2) grad u) discretized
    with high-order partial assembly, integrated with the CVODE-style
    BDF, each Newton system solved by PCG with BoomerAMG on the LOR
    operator. One driver exercising MFEM + hypre + SUNDIALS end to end;
    its event counts are priced into Fig 8 and Table 4. *)

type counters = {
  mutable rhs_applies : int;
  mutable solve_applies : int;
  mutable coeff_updates : int;
  mutable vcycles : int;
  mutable pcg_iters : int;
}

type result = {
  u : float array;
  counters : counters;
  ode_stats : Sundials.Cvode.stats;
  pa_work : Hwsim.Kernel.t;  (** one PA operator application *)
  vcycle_work : Hwsim.Kernel.t;  (** one AMG V-cycle *)
  ndof : int;
  mass_diag : float array;
}

val run :
  ?n:int -> ?p:int -> ?tf:float -> ?rtol:float -> ?atol:float ->
  ?u0:(x:float -> y:float -> float) -> unit -> result
(** Integrate the problem on an (n x n)-element order-p mesh to [tf]. *)

val price :
  ?scale:float -> result -> device:Hwsim.Device.t -> policy:Prog.Policy.t ->
  float * float * float
(** (formulation, preconditioner, solve) seconds — the Fig 8 phases.
    [scale] extrapolates the per-apply work to a problem [scale] times
    larger while keeping the real run's iteration counts (how paper-scale
    sizes are priced from an affordable run). *)
