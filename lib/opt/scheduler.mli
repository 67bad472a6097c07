(** The Opt activity's job-scheduler simulator (Sec 4.7): thousands of
    small, variable-duration GPU jobs from a topology-optimization
    workflow, scheduled onto a GPU pool under different policies.

    The two paper conclusions reproduced: with distribution-driven
    arrivals, throttle the arrival rate below aggregate capacity or the
    queue grows without bound; with batch arrivals, use SJF with a quota
    to raise utilization while bounding long-job starvation. *)

type job = { id : int; arrival : float; duration : float; gpus : int }

type policy =
  | Fcfs  (** strict order; wide jobs block the head of the line *)
  | Fcfs_backfill
      (** EASY backfill: later jobs may jump ahead only if they cannot
          delay the blocked head's earliest start *)
  | Sjf  (** shortest runnable job that fits *)
  | Sjf_quota of float
      (** SJF, but while short jobs wait, long jobs may hold at most this
          fraction of the pool *)

val policy_name : policy -> string

type metrics = {
  makespan : float;
  utilization : float;  (** busy GPU-seconds / (gpus * makespan) *)
  mean_wait : float;
  max_wait : float;
  completed : int;
}

val batch_workload : rng:Icoe_util.Rng.t -> ?n:int -> unit -> job list
(** All jobs present at t = 0; lognormal durations; a third are wide
    (multi-GPU) jobs up to half a 16-GPU pool. *)

val poisson_workload :
  rng:Icoe_util.Rng.t -> rate:float -> horizon:float -> unit -> job list

val capacity : gpus:int -> mean_duration:float -> float
(** Mean processing capacity, jobs/s. *)

val simulate : ?gpus:int -> ?check:bool -> policy -> job list -> metrics
(** Event-driven simulation on {!Core}; jobs wider than the pool are
    dropped before scheduling (they never block the queue) and reported
    as incomplete. [Sjf] is {!Core}'s [Sjf_quota 1.0], whose quota never
    binds. With [check] (default false), every EASY-backfill
    decision re-derives the blocked head's shadow time with the
    candidate hypothetically running and raises [Invalid_argument] if
    the backfill would delay the head's reservation.
    @raise Invalid_argument if a job's arrival or duration is NaN. *)

val simulate_schedule :
  ?gpus:int -> ?check:bool -> policy -> job list ->
  metrics * (int * float * float) list
(** [simulate] plus the realized schedule: one [(job id, start, finish)]
    per started job, in start order. *)

(** {1 The shared scheduling core}

    One event-driven gang scheduler over [pool] identical units (GPUs
    above, nodes in [Icoe_svc.Cluster]); both simulators are adapters
    over [run]. *)
module Core : sig
  type policy = Fcfs | Easy_backfill | Sjf_quota of float | Partition of float
  (** The policies documented on [Icoe_svc.Cluster.policy], over units
      of the pool, with the estimate standing in for the service time.
      "Long" means an estimate above the median. *)

  type 'a hooks = {
    width : 'a -> int;  (** units held from dispatch to finish *)
    arrival : 'a -> float;
    estimate : 'a -> float;  (** runtime estimate, evaluated once per job *)
    dispatch : t:float -> 'a -> float;
        (** the job starts at [t]; returns its actual service time *)
    on_submit : 'a -> unit;
    on_finish : t:float -> 'a -> unit;
        (** simultaneous finishers come latest dispatch first *)
    after_event : t:float -> depth:int -> free:int -> unit;
        (** at time 0, then after each event's dispatches *)
  }

  type outcome = {
    makespan : float;
    busy : float;  (** sum of width x service time *)
    completed : int;
    waits : float list;  (** dispatch - arrival, reverse start order *)
  }

  val run : ?check:bool -> pool:int -> 'a hooks -> policy -> 'a list -> outcome
  (** Jobs wider than [pool] are dropped first and never complete.
      Events within 1e-12 s after the current time are simultaneous.
      The run's state is a set of flat arrays sized once from [jobs]
      (the running set grows on demand); an arrival costs O(1), or
      O(log n) under SJF and EASY, a pick O(C) in the job classes plus
      O(log n), a dispatch O(R) in the running jobs, and a finish O(1)
      amortized. EASY's candidate search alone walks class members
      past the blocked head.
      With [check] (default false) every EASY backfill re-derives the
      head's shadow with the candidate running and raises
      [Invalid_argument] if the reservation would move.
      @raise Invalid_argument naming the job if its arrival, or the
      service time [dispatch] returns for it, is NaN (neither would ever
      come due). Job #k is the k-th, from 0, of the jobs that fit the
      pool, in submitted order. *)
end
