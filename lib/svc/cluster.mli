(** Cluster-level batch scheduling of the job stream: the Sec 4.7
    policies plus a partition/gang policy on node allocations of a
    machine model, run by the scheduling core the Opt simulator shares
    ({!Opt.Scheduler.Core}).

    Allocation is gang-style: a job holds all its nodes from dispatch to
    completion. Service times are not pre-drawn — each dispatch is
    priced by the job class's {!Hwsim.Sched}/roofline cost model at the
    requested allocation size (memoized; the models are pure), so the
    scheduler's "runtime estimates" are exact by construction. *)

type policy =
  | Fcfs  (** strict submission order; wide gangs block the head *)
  | Easy_backfill
      (** later jobs jump ahead only if they finish by the blocked
          head's shadow time or fit the capacity still spare then *)
  | Sjf_quota of float
      (** shortest (model-priced) service first; while short jobs wait,
          long jobs hold at most this fraction of the machine *)
  | Partition of float
      (** this fraction of the machine is reserved for wide jobs
          (>= 1/8 of the machine); each side runs FCFS independently *)

val policy_name : policy -> string

type job_record = {
  job : Workload.job;
  dispatched : float;
  finished : float;
  placed : int list;  (** concrete node ids held, lowest-first placement *)
}

type metrics = {
  policy : string;
  nodes : int;
  submitted : int;  (** including jobs too wide for the machine *)
  completed : int;
  makespan : float;
  utilization : float;  (** busy node-seconds / (nodes * makespan) *)
  jobs_per_s : float;  (** sustained: completed / makespan *)
  mean_wait : float;
  max_wait : float;
  wait_p50 : float;
  wait_p90 : float;
  wait_p99 : float;
  turn_p50 : float;
  turn_p90 : float;
  turn_p99 : float;
  waits : float array;  (** per started job, in start order *)
  turnarounds : float array;  (** per completed job, in finish order *)
  log : job_record list;  (** completed jobs, in finish order *)
  samples : (float * int * int) list;
      (** (time, queue depth, free nodes) at every event time, in
          chronological order *)
}

val simulate :
  ?check:bool -> ?topology:Hwsim.Topology.t -> nodes:int ->
  classes:Workload.job_class array -> policy -> Workload.job list -> metrics
(** Event-driven simulation of the stream on an [nodes]-node machine.
    With [check] (default false) every EASY-backfill decision re-derives
    the head's shadow with the candidate running and raises
    [Invalid_argument] if the reservation would move. Deterministic:
    equal inputs give equal metrics (no wall clock, no hidden state).

    With a [topology], dispatch is placement-aware: the concrete node
    ids a gang receives are mapped to the switch level they span
    ({!Hwsim.Topology.crossing_of_ids}); a fragmented gang whose span
    exceeds the contiguous-best level has the communication share
    (0.2) of its service time stretched by the
    {!Hwsim.Topology.placement_penalty} path-cost ratio. Omitting
    [topology] leaves every service time exactly as priced.

    When the {!Icoe_obs.Events} flight recorder is enabled, the
    simulation emits ["job"] lifecycle events (submit/dispatch/finish)
    and ["queue"] depth/free-node samples, sourced ["svc/<policy>"]. *)

val occupancy_chrome_json : metrics -> string
(** Chrome trace-event export of the cluster occupancy: one process per
    node (jobs as complete spans on the nodes they held, lowest-first
    placement) plus a scheduler process carrying queue-depth and
    free-node counter tracks. Loadable in [chrome://tracing] /
    Perfetto; timestamps are simulated microseconds. The document is
    [{displayTimeUnit, traceEvents}] rendered by
    {!Icoe_util.Json.to_string}, one event per line. *)
