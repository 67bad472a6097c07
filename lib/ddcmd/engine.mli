(** The ddcMD engine: the full MD loop the paper moved onto the GPU —
    nonbonded (generic pair infrastructure over linked cells), bonded
    terms, velocity Verlet, Langevin thermostat, Berendsen barostat, and
    SHAKE-style bond constraints. *)

type t = {
  p : Particles.t;
  potential : Potential.t;
  bonds : Bonded.bond list;
  angles : Bonded.angle list;
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
  ?bonds:Bonded.bond list -> ?angles:Bonded.angle list ->
  ?constraints:(int * int * float) list -> dt:float -> potential:Potential.t ->
  Particles.t -> t
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

val run :
  ?langevin:float * float * Icoe_util.Rng.t -> ?berendsen:float * float ->
  t -> steps:int -> unit

type snapshot
(** Full MD state: positions, velocities, forces, box and engine
    accumulators. *)

val snapshot : t -> snapshot
(** Deep copy of the mutable state, for checkpoint/restart
    ({!Icoe_fault.Checkpoint}). *)

val restore : t -> snapshot -> unit
(** Restore a snapshot taken from the same engine; deterministic
    stepping (e.g. NVE, or Langevin with a replayed rng) after a
    restore replays bit-identically. *)

val rdf : ?bins:int -> ?rmax:float -> t -> float array
(** Radial distribution function g(r), normalized against the ideal-gas
    expectation — MuMMI's in-situ analysis staple. *)

val vacf :
  ?langevin:float * float * Icoe_util.Rng.t -> ?samples:int -> ?stride:int ->
  t -> float array
(** Normalized velocity autocorrelation function over a trajectory. *)

val diffusion_coefficient : vacf:float array -> c0:float -> dt_sample:float -> float
(** Green-Kubo diffusion coefficient from a sampled VACF, where [c0] is
    the unnormalized <v.v> at lag zero (3 T / m in reduced units). *)
