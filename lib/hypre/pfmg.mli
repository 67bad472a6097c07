(** hypre's structured solvers through the retargetable BoxLoops: every
    sweep is a row loop over a level's interior priced by
    [Prog.Exec.charge], so each solve runs under any execution policy.
    Weighted Jacobi runs on one level of any size; PFMG is geometric
    multigrid for the 5-point Poisson problem with full coarsening, damped
    Jacobi smoothing, bilinear prolongation and full-weighting restriction,
    on square grids whose sides are 2^k - 1. *)

type level = {
  nx : int;  (** interior points along i *)
  ny : int;  (** interior points along j *)
  u : float array;  (** (nx+2) x (ny+2) with ghost walls *)
  b : float array;
  r : float array;
}

type t = { levels : level array }

val idx : level -> int -> int -> int
(** Flat index into a level's ghosted arrays (stride [nx + 2]). *)

val create : int -> t
(** [create n] builds the hierarchy for an (n x n) interior grid; [n]
    must be one less than a power of two. *)

val create_level : int -> int -> level
(** [create_level nx ny] builds one zeroed level with an (nx x ny)
    interior; both sides must be at least 1. *)

val finest : t -> level

val solve : ?tol:float -> ?max_cycles:int -> Prog.Exec.ctx -> t -> int * float
(** Iterate V-cycles to relative tolerance: (cycles, relative norm).
    Converges in O(10) cycles independent of grid size.
    @raise Invalid_argument naming [Pfmg.solve] when the residual norm is
    NaN. *)

val jacobi : ?tol:float -> ?max_sweeps:int -> Prog.Exec.ctx -> level -> int * float
(** Weighted-Jacobi sweeps to relative tolerance [tol] (default 1e-8) or
    [max_sweeps] (default 5000): (sweeps, final relative residual). The
    residual max-norm is checked before the first sweep, every 10 sweeps
    and once at the end.
    @raise Invalid_argument naming [Pfmg.jacobi] when that norm is NaN. *)
