(** Resilient-distributed-dataset analog: partitioned in-memory data
    with the two Spark operations LDA's EM loop runs. [map_partitions]
    stays partition-local; [reduce] is a driver-side aggregate. Both
    charge the cluster's cost model. *)

type 'a t = { cluster : Cluster.t; partitions : 'a array array }

let of_array (cluster : Cluster.t) data =
  let np = max 1 (cluster.Cluster.config.Cluster.nodes * 2) in
  let n = Array.length data in
  let partitions =
    Array.init np (fun p ->
        let lo = n * p / np and hi = n * (p + 1) / np in
        Array.sub data lo (hi - lo))
  in
  { cluster; partitions }

let num_partitions t = Array.length t.partitions
let count t = Array.fold_left (fun acc p -> acc + Array.length p) 0 t.partitions
let collect t = Array.concat (Array.to_list t.partitions)

(** Per-partition transform (the mapPartitions workhorse for E-steps). *)
let map_partitions ?(flops_per_elem = 10.0) f t =
  Cluster.charge_compute t.cluster
    ~flops:(flops_per_elem *. float_of_int (count t));
  { t with partitions = Array.map f t.partitions }

(** Driver-side reduce over all partitions — an all-to-one aggregate of
    [bytes_per_elem]-sized partials. *)
let reduce ?(bytes_per_partial = 64.0) ~init ~combine t =
  Cluster.charge_aggregate t.cluster ~bytes_per_node:bytes_per_partial;
  Array.fold_left (Array.fold_left combine) init t.partitions
