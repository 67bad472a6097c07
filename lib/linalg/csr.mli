(** Compressed sparse row matrices: the cuSPARSE analog.

    hypre's BoomerAMG solve phase and every Krylov solve on a matrix run
    on these. *)

type t = {
  m : int;
  n : int;
  row_ptr : int array;  (** length m+1 *)
  col_idx : int array;
  values : Icoe_util.Fbuf.t;
      (** stored entries as a flat float64 Bigarray (SoA layout): the
          SpMV inner loop reads it with unchecked single-load access and
          the GC never scans or moves it *)
}

val nnz : t -> int

val of_triplets : m:int -> n:int -> (int * int * float) list -> t
(** Build from (row, col, value) triplets; duplicates are summed, columns
    are sorted within each row.
    @raise Invalid_argument on an entry outside [m x n]. *)

val of_dense : Dense.t -> t
val to_dense : t -> Dense.t

val spmv : t -> float array -> float array
(** y = A x, fresh output. *)

val spmv_into : t -> float array -> float array -> unit
(** y = A x into a preallocated output, in the calling domain;
    allocation-free. Serial at every size: at 2 domains on a 2-vCPU host
    a row-parallel loop on the domain pool lost on every matrix the
    harnesses build (up to 1 728 rows) and broke even near 4 096 rows.
    @raise Invalid_argument if [x] or [y] does not match the shape (one
    check per call). *)

val spmv_seq_into : t -> float array -> float array -> unit
(** {!spmv_into}, naming [spmv_seq_into] in its shape-check message. *)

val transpose : t -> t

val matmul : t -> t -> t
(** Sparse C = A * B (Gustavson's algorithm) — used for the Galerkin
    coarse-grid product in BoomerAMG.
    @raise Invalid_argument if the inner dimensions differ. *)

val scale_rows : t -> float array -> t
(** diag(d) * A as a fresh matrix.
    @raise Invalid_argument unless [d] has one entry per row. *)

val laplacian_2d : int -> int -> t
(** Standard 5-point Laplacian on an nx x ny grid, Dirichlet walls. *)

val laplacian_3d : int -> int -> int -> t
(** 7-point 3D Laplacian. *)
