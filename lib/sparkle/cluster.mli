(** The SparkPlug execution substrate: a Spark-like cluster with an
    explicit cost model for the three bottlenecks the vendor team profiled
    (Sec 4.4): JVM overheads (GC, serialization, task launch), the shuffle
    implementation, and the all-to-one aggregate primitive.

    The optimized configuration bundles the paper's fixes: IBM SDK JVM,
    the adaptive shuffle of [20, 21], and tree-based all-to-one ops. *)

type config = {
  nodes : int;
  cores_per_node : int;
  jvm_optimized : bool;
  adaptive_shuffle : bool;
  tree_aggregate : bool;
  topology : Hwsim.Topology.t;
      (** the interconnect under the collectives. The default
          [Topology.flat Link.ib_dual_edr] prices every collective
          bit-identically to the old flat [fabric : Link.t] model;
          hierarchical topologies charge per-level hop and contention
          costs (tree rounds climb switch levels, the shuffle is
          throttled by the most contended crossed level). *)
}

val default_config :
  ?nodes:int -> ?topology:Hwsim.Topology.t -> unit -> config

val optimized_config :
  ?nodes:int -> ?topology:Hwsim.Topology.t -> unit -> config

type t = { config : config; clock : Hwsim.Clock.t; trace : Hwsim.Trace.t }

val create : config -> t

val task_overhead : t -> float
val ser_rate : t -> float
(** Serialization throughput, bytes/s. *)

(** {2 Cost model, as pure time functions}

    The [charge_*] primitives below price work through these. *)

val alltoall_gbs : t -> float
(** Effective per-node all-to-all bandwidth of the configured gang:
    the fabric bandwidth itself on flat topologies, the most contended
    crossed level's derated bandwidth on hierarchical ones. *)

val shuffle_seconds : t -> bytes:float -> float
val aggregate_seconds : t -> bytes_per_node:float -> float
(** Tree aggregates clamp the round count with [max 2 nodes] (like
    broadcast) so a one-node tree still pays one combine round instead
    of [ceil (log2 1) = 0] seconds. *)

val broadcast_seconds : t -> bytes:float -> float

(** {2 Charges} *)

val charge_compute : t -> flops:float -> unit
val charge_shuffle : t -> bytes:float -> unit
(** All-to-all; the default sort-based path also spills to disk. *)

val charge_aggregate : t -> bytes_per_node:float -> unit
(** All-to-one: flat (driver ingests serially) or log-depth tree. *)

val charge_broadcast : t -> bytes:float -> unit

val elapsed : t -> float
val breakdown : t -> (string * float) list

val trace : t -> Hwsim.Trace.t
(** The span trace every charging primitive writes through; ticks the
    same clock [elapsed]/[breakdown] read, so the two views agree. *)
