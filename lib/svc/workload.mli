(** Job-stream generation for the machine-as-a-service simulation.

    The paper's machine was a batch-scheduled shared resource; this
    module models its demand side. A {!job_class} names one of the
    reproduced workloads (a harness-registry id) together with its
    candidate allocation sizes and a cost-model pricing of its service
    time; {!generate} draws a submission stream over the classes with
    Zipf-skewed popularity and Poisson or bursty arrivals. *)

type job_class = {
  name : string;  (** harness-registry id of the workload *)
  sizes : int array;  (** candidate node counts, drawn uniformly *)
  service : nodes:int -> float;
      (** service seconds on an allocation of [nodes], priced by the
          {!Hwsim.Sched}/roofline cost models. Must be pure: the cluster
          simulator memoizes it per (class, nodes). *)
}

type job = {
  id : int;
  arrival : float;  (** submission time, seconds *)
  klass : int;  (** index into the class catalog *)
  nodes : int;  (** requested allocation (gang: all held at once) *)
}

type arrivals =
  | Poisson of float  (** rate, jobs/s *)
  | Bursty of {
      rate_hi : float;  (** jobs/s while bursting *)
      rate_lo : float;  (** jobs/s between bursts (may be 0) *)
      mean_hi_s : float;  (** mean burst dwell, seconds *)
      mean_lo_s : float;  (** mean quiet dwell, seconds *)
    }
      (** Two-state Markov-modulated Poisson process: exponential dwell
          in each state, switched high/low arrival rates. *)

val zipf : s:float -> int -> float array
(** [zipf ~s n]: unnormalized Zipf weights [1/k^s] for ranks 1..n. *)

val mean_node_seconds : classes:job_class array -> zipf_s:float -> float
(** Exact expected node-seconds demand of one submitted job (Zipf over
    classes, uniform over each class's sizes, model-priced service). *)

val capacity : classes:job_class array -> zipf_s:float -> nodes:int -> float
(** Mean processing capacity of an [nodes]-node machine, jobs/s: the
    arrival rate at which offered load equals the whole machine. *)

val offered_load :
  classes:job_class array -> zipf_s:float -> rate:float -> nodes:int -> float
(** Fraction of the machine the stream asks for ([1.0] = at capacity). *)

val generate :
  rng:Icoe_util.Rng.t -> classes:job_class array -> ?zipf_s:float ->
  arrivals:arrivals -> horizon:float -> unit -> job list
(** Submission stream over [\[0, horizon\]] seconds, in arrival order.
    [zipf_s] (default 1.1) skews popularity toward the first classes of
    the catalog. Deterministic in the RNG seed. *)
