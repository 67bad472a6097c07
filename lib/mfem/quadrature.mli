(** Gauss-Legendre and Gauss-Lobatto-Legendre rules on [-1, 1]. GLL nodes
    double as the nodal points of the high-order bases. *)

val gauss_legendre : int -> float array * float array
(** n points and weights, exact for polynomials of degree 2n-1. *)

val gauss_lobatto : int -> float array * float array
(** n >= 2 points including the endpoints, exact to degree 2n-3. *)
