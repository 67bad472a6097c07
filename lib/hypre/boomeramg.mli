(** BoomerAMG: unstructured algebraic multigrid.

    Setup (CPU, per the paper): strength -> PMIS coarsening -> direct
    interpolation -> Galerkin coarse operator, recursively. Solve
    (GPU-portable): V-cycles whose fine-level work is smoother sweeps and
    spmv restrict/prolong — all matvec-shaped. *)

type level = {
  a : Linalg.Csr.t;
  p : Linalg.Csr.t option;  (** interpolation from the next-coarser level *)
  r : Linalg.Csr.t option;  (** restriction = P^T *)
}

type t = {
  levels : level array;  (** levels.(0) is the fine grid *)
  coarse_lu : Linalg.Dense.lu;
  smoother : Smoother.kind;
  nu_pre : int;
  nu_post : int;
}

type setup_params = {
  theta : float;
  max_levels : int;
  coarse_size : int;
  smoother : Smoother.kind;
  nu_pre : int;
  nu_post : int;
  seed : int;
}

val setup : ?params:setup_params -> Linalg.Csr.t -> t
(** Build the hierarchy (the CPU-side setup phase). *)

val num_levels : t -> int

val operator_complexity : t -> float
(** Total nnz across levels over fine-grid nnz (a standard AMG health
    metric, ~1.3-2.5 for good hierarchies). *)

val v_cycle : t -> float array -> float array -> unit
(** One V-cycle for A x = b, updating x in place. *)

val solve : ?tol:float -> ?max_cycles:int -> t -> float array -> float array
  -> float array * int * float
(** Iterate V-cycles to tolerance: (solution, cycles, relative residual). *)

val precond : t -> float array -> float array
(** One V-cycle from a zero guess — the AMG-as-preconditioner hook. *)

val pcg_solve : ?tol:float -> ?max_iter:int -> t -> float array -> float array
  -> Linalg.Krylov.result
(** PCG with this AMG as preconditioner — the hypre Krylov + AMG stack. *)

val v_cycle_work : t -> Hwsim.Kernel.t
(** Flop/byte/launch volume of one V-cycle for device pricing. *)
