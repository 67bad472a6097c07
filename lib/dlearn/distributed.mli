(** Distributed-training algorithms (Sec 4.5): synchronous SGD, ASGD with
    parameter-server staleness, and the team's K-step averaging
    (KAVG [34]). All run the real optimization on real data; the
    simulated communication model prices their wall clock. *)

type dataset = { xs : float array array; labels : int array }

val make_task :
  rng:Icoe_util.Rng.t -> ?classes:int -> ?dim:int -> ?n:int -> ?spread:float ->
  unit -> dataset
(** Gaussian class-cluster classification task. *)

val minibatch : rng:Icoe_util.Rng.t -> batch:int -> dataset -> float array array * int array

val allreduce_time :
  ?topology:Hwsim.Topology.t -> ?placement:Hwsim.Topology.placement ->
  params:int -> learners:int -> unit -> float
(** Recursive-doubling allreduce of the parameter buffer. Without a
    [topology] the flat dual-rail EDR pricing is kept verbatim; with
    one, each round is priced at the switch level its pair distance
    crosses under [placement] (default [Contiguous]). *)

type run = {
  final_loss : float;
  final_accuracy : float;
  simulated_seconds : float;
  steps : int;
  overlap_efficiency : float;
      (** charged time over serial-sum time, in (0, 1]; 1.0 for the
          algorithms that don't overlap communication *)
}

val layer_params : int array -> int list
(** Parameter count of each MLP layer (weights + biases), input first;
    sums to {!Mlp.num_params}. *)

type round_model = {
  serial_round_s : float;
      (** the exact pre-scheduler round cost, [k * compute + allreduce] *)
  overlapped_round_s : float;
      (** critical path with each layer's allreduce slice on the "net"
          stream under the last local step's per-layer backward pass *)
  round_s : float;  (** the charged per-round time: overlapped or serial *)
  round_efficiency : float;  (** [overlapped /. serial] (1.0 when serial) *)
  dag : Icoe_obs.Prof.item array;
      (** the scheduled backprop/allreduce DAG, ready for
          {!Icoe_obs.Prof.analyze} critical-path blame *)
}

val kavg_round_model :
  ?overlap:bool -> ?trace:Hwsim.Trace.t -> ?topology:Hwsim.Topology.t ->
  ?placement:Hwsim.Topology.placement -> ?node:Hwsim.Node.t ->
  ?gpu_frac:float -> ?comm:Hwsim.Split.comm -> learners:int -> k:int ->
  batch:int -> int array -> round_model
(** Per-round KAVG cost model: the round's allreduce is bucketed per
    layer (proportional to parameter share, no extra per-bucket latency)
    and issued as soon as that layer's gradients exist. [overlap]
    defaults to {!Hwsim.Sched.overlap_enabled}; a bound [trace] receives
    one round's items. [topology]/[placement] price the allreduce across
    switch levels (see {!allreduce_time}); omitting them keeps the flat
    dual-rail EDR model bit-identically.

    [node] prices compute at that node's GPU (V100 when absent or
    GPU-less) and host sockets; [gpu_frac] (default 1.0) splits the
    local-SGD head and each per-layer backprop slice between the "gpu"
    stream and a co-executing "cpu" stream; [comm] keeps the allreduce
    slices on their own "net" stream ([Dedicated], the default) or
    issues them inline on the compute stream. At the defaults the model
    is bit-identical to the pre-split one. *)

val sync_sgd :
  rng:Icoe_util.Rng.t -> learners:int -> steps:int -> batch:int -> lr:float ->
  int array -> dataset -> run
(** Bulk-synchronous data parallelism: one allreduce per step. *)

val asgd :
  rng:Icoe_util.Rng.t -> learners:int -> steps:int -> batch:int -> lr:float ->
  staleness:int -> int array -> dataset -> run
(** Parameter-server ASGD; gradients are applied [staleness] updates late
    (round-robin model) — the practical pathology the paper describes.
    Raises [Invalid_argument] on a negative [staleness]. *)

val kavg :
  rng:Icoe_util.Rng.t -> learners:int -> rounds:int -> k:int -> batch:int ->
  lr:float -> ?overlap:bool -> int array -> dataset -> run
(** K-step averaging: k local steps then a weight average;
    bulk-synchronous with k-fold less communication. The round clock
    comes from {!kavg_round_model}; with overlap on, the average's
    allreduce hides under the last local step's backprop. *)
