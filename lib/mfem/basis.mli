(** 1D nodal (Lagrange) bases on GLL points, tabulated at quadrature
    points. The [b]/[g] tables are the only basis data the sum-factorized
    operators touch — the tensor-product structure does the rest. *)

type t = {
  p : int;  (** polynomial order *)
  nodes : float array;  (** p+1 GLL nodal points on [-1, 1] *)
  qpts : float array;
  qwts : float array;
  b : float array array;  (** b.(q).(i) = phi_i(x_q) *)
  g : float array array;  (** g.(q).(i) = phi_i'(x_q) *)
}

val create : int -> t
(** Order-p basis at a (p+2)-point Gauss rule (full accuracy for the
    diffusion form). *)

val create_collocated : int -> t
(** Quadrature at the GLL nodes themselves — makes the mass matrix
    diagonal (spectral-element lumping). *)

val nq : t -> int
