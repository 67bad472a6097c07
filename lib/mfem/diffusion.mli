(** The diffusion operator in two representations: classical full
    assembly into CSR (the "wrong algorithm for GPUs" the MFEM team
    started from) and matrix-free partial assembly with sum factorization
    (the rewrite). Both compute identical results; they differ in the
    flop/byte/storage profile the hardware model prices — the substance of
    Fig 8 / Table 4. *)

type coefficient = x:float -> y:float -> float

val unit_coefficient : coefficient

val assemble : ?kappa:coefficient -> Mesh.t -> Basis.t -> Linalg.Csr.t
(** Full assembly of the global stiffness matrix (no boundary
    conditions). *)

val eliminate_dirichlet : Linalg.Csr.t -> int list -> Linalg.Csr.t
(** Zero the given rows/columns and put 1 on their diagonal. *)

(** Matrix-free partial assembly. *)
module Pa : sig
  type t = {
    mesh : Mesh.t;
    basis : Basis.t;
    d00 : float array array;  (** per-element quadrature-point factors *)
    d11 : float array array;
    u_loc : float array;
    y_loc : float array;
    tmp : float array;
    gx : float array;
    gy : float array;
  }

  val setup : ?kappa:coefficient -> Mesh.t -> Basis.t -> t
  (** Precompute the geometric factors; storage O(elements x qpoints). *)

  val apply : t -> float array -> float array -> unit
  (** y <- K u by sum-factorized tensor contractions. *)

  val apply_specialized : t -> float array -> float array -> unit
  (** "JIT"-specialized kernel for p = 2 with unrolled contractions (the
      Sec 4.10.3 compile-time-bounds lesson); identical results, falls
      back to [apply] for other orders. *)

  val update_coefficients : t -> kappa_of_u:(float -> float) -> u:float array -> unit
  (** Rebuild the factors for a solution-dependent coefficient. *)

  val work : t -> Hwsim.Kernel.t
  (** Flop/byte volume of one full-mesh apply. *)

  val storage_bytes : t -> float
end

val fa_work : Linalg.Csr.t -> Hwsim.Kernel.t
val fa_storage_bytes : Linalg.Csr.t -> float

val mass_diagonal : Mesh.t -> Basis.t -> float array
(** Diagonal mass matrix at unit density from GLL collocation
    (spectral-element lumping); pass a basis from
    {!Basis.create_collocated}. *)
