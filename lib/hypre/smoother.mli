(** The AMG hierarchy's pointwise smoother: l1-Jacobi, a matvec plus a
    diagonal scaling — the shape that let the paper's BoomerAMG
    solve-phase port run its smoothing on cuSPARSE spmv. *)

val l1_norms : Linalg.Csr.t -> float array
(** The row l1 norms sum_k |a_ik| that {!sweep} scales by; a matrix's
    hierarchy level computes them once. *)

val sweep :
  Linalg.Csr.t -> l1:float array -> float array -> float array ->
  float array -> unit
(** [sweep a ~l1 b x r]: one in-place sweep of x <- x + D_l1^-1 (b - A x),
    with every row scaled by its l1 norm [l1] (from {!l1_norms} of [a];
    unconditionally stable). [r] is the residual workspace, one entry
    per row; its contents are overwritten.
    @raise Invalid_argument if [l1], [x] or [r] does not match [a]'s
    shape. *)
