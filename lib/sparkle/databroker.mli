(** The Data Broker adapter (Sec 4.4): shared in-memory key-value storage
    [25] that SparkPlug could stage shuffle data through. Tuple transfer
    bypasses JVM serialization (native buffers), so a broker-mediated
    shuffle pays wire time plus a small per-tuple put/get cost only. *)

type t

val create : ?put_cost_s:float -> ?native_rate:float -> Cluster.t -> t

val put : t -> ns:string -> key:string -> float array -> unit
(** Store a tuple in a namespace; charges broker latency + native-buffer
    transfer on the cluster clock. *)

val get : t -> ns:string -> key:string -> float array option

val delete_namespace : t -> string -> unit

val shuffle_cost : t -> bytes:float -> tuples:int -> float
(** Cost of moving a shuffle through the broker (no JVM serialization). *)
