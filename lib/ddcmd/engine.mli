(** The ddcMD engine: the full MD loop the paper moved onto the GPU —
    nonbonded (generic pair infrastructure over linked cells), bonded
    terms, velocity Verlet, Langevin thermostat and SHAKE-style bond
    constraints. *)

type t = {
  p : Particles.t;
  potential : Potential.t;
  bonds : Bonded.bond list;
  constraints : (int * int * float) list;  (** (i, j, fixed distance) *)
  dt : float;
  mutable pot_energy : float;
  mutable virial : float;
  mutable steps : int;
  mutable pair_count : int;
  mutable cells : Cells.t option;
      (** last cell-list build, reused in place by the next force call *)
  arena : Prog.Scratch.t;  (** per-chunk force-kernel scratch slots *)
}

val create :
  ?bonds:Bonded.bond list -> ?constraints:(int * int * float) list ->
  dt:float -> potential:Potential.t -> Particles.t -> t
(** Raises [Invalid_argument] unless [dt] is positive and finite. *)

val compute_forces : t -> unit
(** Recompute all forces; updates potential energy and virial.
    Particle-parallel on the {!Icoe_par.Pool}: each particle accumulates
    its force over the full neighbour shell (GPU-style, each pair
    evaluated from both ends), so writes are disjoint and the result is
    bit-identical to {!compute_forces_seq} for any pool size. *)

val compute_forces_seq : t -> unit
(** Serial reference path: same algorithm and chunk-ordered reduction,
    entirely in the calling domain. *)

val total_energy : t -> float

val run : ?langevin:float * float * Icoe_util.Rng.t -> t -> steps:int -> unit
