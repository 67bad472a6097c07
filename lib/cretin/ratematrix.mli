(** Transition-rate evaluation and rate-matrix assembly/solution — the
    main computation of Cretin (Sec 4.3). Steady state solves M n = 0
    with sum(n) = 1 by the cuSOLVER analog (dense LU). *)

type conditions = {
  te : float;  (** electron temperature, eV *)
  ne : float;  (** electron density, cm^-3 *)
  radiation : float;  (** radiation-field scale for photo rates *)
}

val assemble : Atomic.t -> conditions -> Linalg.Dense.t
(** Dense rate matrix M with dn/dt = M n; column sums are zero
    (population conservation) by construction. *)

val solve_direct : Atomic.t -> conditions -> float array
(** Steady-state populations via LU with the normalization row. *)
