(** Structured-solver BoxLoops.

    hypre's structured solvers are "abstracted with macros called BoxLoops
    ... completely restructured to allow ports of CUDA, OpenMP 4.5, RAJA
    and Kokkos into the isolated BoxLoops". Here a box loop is a plain
    row loop over an index box followed by [charge], which prices the
    sweep under a pluggable execution context, so swapping the backend is
    a one-argument change. *)

type box = { ilo : int; ihi : int; jlo : int; jhi : int }

val charge :
  Prog.Exec.ctx -> phase:string -> flops_per:float -> bytes_per:float -> box -> unit
(** Price one sweep of the box: [Prog.Exec.charge] over its cells. *)

(** A 5-point structured Poisson smoother written as box loops (the
    retargetable structured-solver shape). *)
module Struct_solver : sig
  type t = {
    nx : int;
    ny : int;
    u : float array;
    b : float array;
    scratch : float array;
  }

  val create : int -> int -> t
  (** [create nx ny]; both sides must be at least 3, so that the grid
      has an interior. *)

  val idx : t -> int -> int -> int

  val solve : ?tol:float -> ?max_sweeps:int -> Prog.Exec.ctx -> t -> int * float
  (** Iterate to relative tolerance: (sweeps, final relative residual). *)
end
