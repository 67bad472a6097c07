(** Checkpoint/restart driver for the time-stepping engines.

    The driver advances a real engine (SW4, Cardioid monodomain,
    ddcMD, CVODE) step by step while mapping each step onto a
    simulated per-step cost.  Checkpoints snapshot the full solver
    state every [interval] steps (charging a write cost); when the
    plan schedules a node failure inside a step's simulated window,
    the in-flight step is lost, the engine is restored from the last
    snapshot, and execution replays from there after the node's
    downtime plus a restart cost.  Because the engines are
    bit-identical across pool sizes, restore-and-replay reproduces the
    exact fault-free final state — which is what the recovery tests
    assert. *)

type report = {
  steps : int;  (** first-time steps completed (the job size) *)
  interval : int;  (** steps between checkpoints *)
  step_cost_s : float;  (** simulated seconds per step *)
  injected : int;  (** node failures that struck the run *)
  recovered : int;  (** successful restore-and-replay cycles *)
  checkpoints : int;  (** snapshots written *)
  ideal_s : float;  (** steps * step_cost_s *)
  achieved_s : float;  (** failure-inflated time to solution *)
  checkpoint_overhead_s : float;  (** checkpoints * write cost *)
  lost_work_s : float;  (** rework + partial steps + downtime + restart *)
}

val inflation : report -> float
(** Time-to-solution inflation: [achieved_s /. ideal_s]. *)

val pp_report : Format.formatter -> report -> unit

val young_daly_s : mtbf_s:float -> checkpoint_cost_s:float -> float
(** Young/Daly first-order optimal checkpoint period:
    tau = sqrt (2 * delta * M) for write cost delta and system MTBF M. *)

val young_daly_steps :
  mtbf_s:float -> checkpoint_cost_s:float -> step_cost_s:float -> int
(** {!young_daly_s} rounded to whole steps, at least 1. *)

val run :
  plan:Plan.t ->
  ?restart_cost_s:float ->
  step_cost_s:float ->
  checkpoint_cost_s:float ->
  interval:int ->
  steps:int ->
  snapshot:(unit -> 's) ->
  restore:('s -> unit) ->
  step:(int -> unit) ->
  unit ->
  report
(** Drive [step i] for [i] in [0, steps), checkpointing and recovering
    as above, with simulated time starting at 0 against the plan.  The
    report satisfies
    [achieved_s = ideal_s +. checkpoint_overhead_s +. lost_work_s]
    up to float tolerance. *)
