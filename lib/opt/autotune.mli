(** Heterogeneous work-partitioning auto-tuner.

    The paper's core lesson is deciding what runs where on a
    heterogeneous node; its placements were hand-picked. This module
    makes the decision a first-class optimizer, after Memeti & Pllana's
    combinatorial work-distribution search (ICPPW'16) and Borrell et
    al.'s POWER9 CPU/GPU co-execution: a candidate is a point in
    (split lattice x stream placement), the objective rebuilds a
    {!Hwsim.Sched} DAG for the candidate and returns its simulated
    makespan, and the tuner minimizes it — exhaustively over the
    quantized lattice, or by seeded simulated annealing with a greedy
    hill-climb polish for large spaces.

    Guarantee: the paper-default candidate ([split = 1.0], [Dedicated])
    is always evaluated first and never abandoned for anything worse,
    so [best.makespan <= default.makespan] holds for every mode, seed
    and budget — tuning can only help. *)

type candidate = { split : float; comm : Hwsim.Split.comm }
(** One placement decision: the accelerator's share of the divisible
    work and where the model's communication stream lives. *)

type objective = candidate -> float
(** Simulated makespan (seconds) of the schedule a candidate induces.
    Must be deterministic, finite and non-NaN; evaluations are memoized
    per candidate. *)

type evaluation = { cand : candidate; makespan : float }

type mode =
  | Exhaustive  (** every lattice point x placement *)
  | Anneal of { seed : int; iters : int }
      (** simulated annealing over lattice-index moves with a
          deterministic {!Icoe_util.Rng} stream, then a greedy
          hill-climb polish from the best state seen. When the whole
          space fits in [iters] evaluations it falls back to the
          exhaustive sweep — the two modes agree exactly on small
          lattices. *)

type result = {
  best : evaluation;  (** the tuned placement *)
  default : evaluation;  (** the paper default, [split = 1.0], [Dedicated] *)
  evaluations : int;  (** distinct candidates priced (memoized) *)
  space : int;  (** lattice points x placements *)
  mode : string;  (** e.g. ["exhaustive"], ["anneal(seed=42,iters=160)"] *)
}

val default_candidate : candidate
(** [{ split = 1.0; comm = Dedicated }] — all work on the accelerator,
    communication on its own stream. *)

val exhaustive :
  ?splits:float array -> ?comms:Hwsim.Split.comm list -> objective -> result
(** [tune Exhaustive]. *)

val anneal :
  ?seed:int -> ?iters:int -> ?splits:float array -> objective -> result
(** [tune (Anneal { seed; iters })] with [seed = 42], [iters = 160],
    over both placements. *)
