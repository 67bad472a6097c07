(** Structured-solver BoxLoops.

    hypre's structured solvers are "abstracted with macros called BoxLoops
    ... completely restructured to allow ports of CUDA, OpenMP 4.5, RAJA
    and Kokkos into the isolated BoxLoops". A box loop sweeps an index box
    under a pluggable execution context, so swapping the backend is a
    one-argument change. *)

type box = { ilo : int; ihi : int; jlo : int; jhi : int }

val boxloop2 :
  Prog.Exec.ctx ->
  ?phase:string ->
  flops_per:float ->
  bytes_per:float ->
  box ->
  (int -> int -> unit) ->
  unit
(** Sweep [f i j] over the box, charging the context. *)

(** A 5-point structured Poisson smoother written entirely through
    boxloops (the retargetable structured-solver shape). *)
module Struct_solver : sig
  type t = {
    nx : int;
    ny : int;
    u : float array;
    b : float array;
    scratch : float array;
  }

  val create : int -> int -> t
  val idx : t -> int -> int -> int

  val solve : ?tol:float -> ?max_sweeps:int -> Prog.Exec.ctx -> t -> int * float
  (** Iterate to relative tolerance: (sweeps, final relative residual). *)
end
