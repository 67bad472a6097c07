(** Bonded interactions: harmonic bonds — the "nested, pointer-rich"
    terms the paper had to marshal for the GPU. *)

type bond = { bi : int; bj : int; k : float; r0 : float }

val bond_forces : Particles.t -> bond list -> float
(** Accumulate forces; returns the bond potential energy. Newton's third
    law holds pairwise. *)

