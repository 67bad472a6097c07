(** The AMG hierarchy's pointwise smoother: l1-Jacobi, a matvec plus a
    diagonal scaling — the shape that let the paper's BoomerAMG
    solve-phase port run its smoothing on cuSPARSE spmv. *)

val sweep : Linalg.Csr.t -> float array -> float array -> float array -> unit
(** [sweep a b x r]: one in-place sweep of x <- x + D_l1^-1 (b - A x),
    with every row scaled by its l1 norm (unconditionally stable). [r]
    is the residual workspace, one entry per row; its contents are
    overwritten.
    @raise Invalid_argument if [x] or [r] does not match [a]'s shape. *)
