(** Seeded, deterministic fault plans.

    A plan is a fixed schedule of fault events drawn once from
    [Icoe_util.Rng] given a seed and per-component hazard rates: node
    failures (fail-stop with a repair downtime), link degradations
    (bandwidth cut and/or latency spike over a window), straggler
    devices (a slowdown factor over a window), and transient kernel
    faults (point events that force a kernel re-execution).  All times
    are simulated seconds.  Because generation happens up front and
    every query is a pure lookup, runs that consult a plan stay
    bit-identical across pool sizes and repeated runs with the same
    seed. *)

type node_failure = {
  node : int;  (** which node fails *)
  at : float;  (** simulated time of the fail-stop *)
  downtime : float;  (** repair/reboot time before the node returns *)
}

type link_degradation = {
  deg_at : float;
  deg_until : float;
  bw_factor : float;  (** effective bandwidth multiplier in (0,1] *)
  latency_factor : float;  (** latency multiplier >= 1 *)
}

type straggler = {
  straggler_at : float;
  straggler_until : float;
  slowdown : float;  (** kernel-time multiplier >= 1 *)
}

type config = {
  nodes : int;  (** partition size the plan covers *)
  horizon_s : float;  (** events are drawn on [0, horizon_s) *)
  node_mtbf_s : float;  (** per-node mean time between failures *)
  node_downtime_s : float;  (** mean repair time *)
  link_mtbf_s : float;  (** mean time between fabric degradations *)
  link_degraded_s : float;  (** mean degradation duration *)
  straggler_mtbf_s : float;  (** mean time between straggler episodes *)
  straggler_s : float;  (** mean episode duration *)
  kernel_fault_mtbf_s : float;  (** mean time between transient faults *)
}

val default_config : config
(** A bring-up-flavoured 16-node partition over a 4000 s horizon. *)

type t

val seed : t -> int

val generate : seed:int -> config -> t
(** Draw the full schedule.  Each fault class uses its own split of the
    seeded generator, so changing one hazard rate does not perturb the
    other classes' schedules.  Any [*_mtbf_s] set to [infinity]
    disables that class.  Raises [Invalid_argument], naming the field,
    when [nodes], [horizon_s] or any [*_mtbf_s] is not positive (NaN
    included). *)

type spec = { spec_seed : int; intensity : float }
(** A machine-independent request for faults, carried by
    {!Context}: harnesses with different simulated time scales derive
    their own plan from it with {!for_run}. *)

val spec : ?intensity:float -> int -> spec
(** [intensity] defaults to 1.0 (~4 expected failures per run). *)

val for_run : spec -> ideal_s:float -> nodes:int -> t
(** Derive a plan scaled to a run whose fault-free simulated duration
    is [ideal_s]: system MTBF [ideal_s /. (4 *. intensity)], mean
    downtime MTBF/8, link/straggler/kernel hazards in proportion, and
    a horizon long enough to cover failure-inflated completion. *)

(** {1 Queries} *)

val node_failures : t -> node_failure list
(** All node failures, sorted by time. *)

val next_node_failure : t -> after:float -> node_failure option
(** Earliest failure with [at > after]. *)

val node_down : t -> node:int -> now:float -> bool
(** Is [node] inside a [at, at +. downtime) window? *)

val link_factors : t -> now:float -> float * float
(** [(bw_factor, latency_factor)] at [now]; [(1., 1.)] when the fabric
    is clean.  Overlapping degradations compound. *)

val straggler_slowdown : t -> now:float -> float
(** Kernel-time multiplier at [now]; 1.0 when no straggler is active.
    Overlapping episodes take the worst slowdown. *)

val kernel_faults_in : t -> a:float -> b:float -> int
(** Transient kernel faults in the window (a, b]. *)

val mtbf : t -> float
(** System MTBF: horizon / number of node failures (the horizon itself
    when the schedule is failure-free).  Feeds Young/Daly. *)

val counts : t -> int * int * int * int
(** (node failures, link degradations, stragglers, kernel faults). *)

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph schedule summary for harness reports. *)
