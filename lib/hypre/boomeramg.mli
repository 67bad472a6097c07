(** BoomerAMG: unstructured algebraic multigrid.

    Setup (CPU, per the paper): strength -> PMIS coarsening -> direct
    interpolation -> Galerkin coarse operator, recursively. Solve
    (GPU-portable): V-cycles whose fine-level work is smoother sweeps and
    spmv restrict/prolong — all matvec-shaped. *)

type level = {
  a : Linalg.Csr.t;
  l1 : float array;  (** [a]'s row l1 norms, summed once by {!setup} *)
  p : Linalg.Csr.t option;  (** interpolation from the next-coarser level *)
  r : Linalg.Csr.t option;  (** restriction = P^T *)
  res : float array;  (** residual and correction workspace *)
  bc : float array;  (** next level's right-hand side workspace *)
  xc : float array;  (** next level's iterate workspace *)
}
(** A level of the hierarchy with the V-cycle's workspaces, allocated
    once by {!setup}; the coarsest level has no [p]/[r] and empty
    [bc]/[xc]. *)

type t = {
  levels : level array;  (** levels.(0) is the fine grid *)
  coarse_lu : Linalg.Dense.lu;
}
(** A hierarchy owns its workspaces: {!v_cycle}, {!precond} and
    {!pcg_solve} on one [t] must not run on two domains at once. *)

val setup : Linalg.Csr.t -> t
(** Build the hierarchy (the CPU-side setup phase): strength threshold
    0.25, PMIS seeded with 7, coarsening down to at most 40 rows or 20
    levels, one l1-Jacobi sweep before and after the coarse
    correction. *)

val num_levels : t -> int

val operator_complexity : t -> float
(** Total nnz across levels over fine-grid nnz (a standard AMG health
    metric, ~1.3-2.5 for good hierarchies). *)

val v_cycle : t -> float array -> float array -> unit
(** [v_cycle t b x]: one V-cycle for A x = b, updating x in place.
    Allocates nothing: every intermediate vector is a level workspace.
    [b] and [x] must be distinct, with one entry per fine row. *)

val precond : t -> float array -> float array -> unit
(** [precond t r z]: one V-cycle from a zero guess, written into [z] —
    the AMG-as-preconditioner hook for {!Linalg.Krylov.cg}. *)

val pcg_solve : ?tol:float -> ?max_iter:int -> t -> float array -> float array
  -> Linalg.Krylov.result
(** PCG with this AMG as preconditioner — the hypre Krylov + AMG stack. *)

val v_cycle_work : t -> Hwsim.Kernel.t
(** Flop/byte/launch volume of one V-cycle for device pricing. *)
