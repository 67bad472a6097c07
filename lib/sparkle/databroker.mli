(** The Data Broker adapter (Sec 4.4): shared in-memory key-value storage
    [25] that SparkPlug could stage shuffle data through. Tuple transfer
    bypasses JVM serialization (native buffers), so a broker-mediated
    shuffle pays wire time plus a small per-tuple put/get cost only. *)

type t

val create : Cluster.t -> t

val shuffle_cost : t -> bytes:float -> tuples:int -> float
(** Cost of moving a shuffle through the broker (no JVM serialization). *)
