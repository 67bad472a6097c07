(** Resilient-distributed-dataset analog: partitioned in-memory data
    with the two Spark operations LDA's EM loop runs. [map_partitions]
    stays partition-local; [reduce] is a driver-side aggregate. Both
    charge the cluster's cost model. *)

type 'a t = { cluster : Cluster.t; partitions : 'a array array }

val of_array : Cluster.t -> 'a array -> 'a t
(** Two partitions per node. *)

val num_partitions : 'a t -> int
val count : 'a t -> int
val collect : 'a t -> 'a array

val map_partitions : ?flops_per_elem:float -> ('a array -> 'b array) -> 'a t -> 'b t
(** The mapPartitions workhorse (E-steps and the like). *)

val reduce :
  ?bytes_per_partial:float -> init:'b -> combine:('b -> 'a -> 'b) -> 'a t -> 'b
(** Driver-side fold; charged as an all-to-one aggregate of the
    partials. *)
