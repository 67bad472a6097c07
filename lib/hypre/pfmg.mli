(** PFMG: geometric multigrid for the structured path, entirely through
    the retargetable BoxLoops. Solves the 5-point Poisson problem with
    full coarsening, damped Jacobi smoothing, bilinear prolongation and
    full-weighting restriction. Grid sides must be 2^k - 1. *)

type level = {
  n : int;  (** interior points per side *)
  u : float array;  (** (n+2)^2 with ghost walls *)
  b : float array;
  r : float array;
}

type t = { levels : level array }

val idx : level -> int -> int -> int
(** Flat index into a level's ghosted arrays. *)

val create : int -> t
(** [create n] builds the hierarchy for an (n x n) interior grid; [n]
    must be one less than a power of two. *)

val finest : t -> level

val solve : ?tol:float -> ?max_cycles:int -> Prog.Exec.ctx -> t -> int * float
(** Iterate V-cycles to relative tolerance: (cycles, relative norm).
    Converges in O(10) cycles independent of grid size. *)
