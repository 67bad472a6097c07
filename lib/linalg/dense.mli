(** Dense matrices (row-major) with partial-pivoting LU — the cuSOLVER
    analog. Cretin's direct rate-matrix inversions and small FEM element
    solves go through here. *)

type t = { m : int; n : int; a : float array }

val create : int -> int -> t
(** Zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val get : t -> int -> int -> float
(** Raises [Invalid_argument] on an index outside the matrix (also
    {!set}, {!update}). *)

val set : t -> int -> int -> float -> unit
val update : t -> int -> int -> (float -> float) -> unit
val copy : t -> t
val identity : int -> t
val transpose : t -> t

val matvec : t -> float array -> float array
(** Raises [Invalid_argument] unless the vector has [n] entries. *)

val matmul : t -> t -> t
(** Raises [Invalid_argument] unless the inner dimensions agree. *)

exception Singular of int
(** Raised by factorization when a pivot column is numerically zero. *)

type lu
(** An LU factorization with its pivot permutation. *)

val lu_factor : t -> lu
(** Raises [Invalid_argument] on a non-square matrix and {!Singular} on
    breakdown. *)

val lu_solve : lu -> float array -> float array
(** Raises [Invalid_argument] unless the right-hand side has the
    factorization's order. *)

val solve : t -> float array -> float array
(** One-shot factor-and-solve. *)

val frobenius : t -> float
val pp : Format.formatter -> t -> unit
