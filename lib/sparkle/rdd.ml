(** Resilient-distributed-dataset analog: partitioned in-memory data with
    Spark's operation vocabulary. Narrow ops stay partition-local; wide
    ops (shuffle / aggregate) move data for real between partition arrays
    and charge the cluster's cost model. *)

type 'a t = { cluster : Cluster.t; partitions : 'a array array }

let of_array (cluster : Cluster.t) ?npartitions data =
  let np =
    match npartitions with
    | Some n -> max 1 n
    | None -> max 1 (cluster.Cluster.config.Cluster.nodes * 2)
  in
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

(** Narrow map; [flops_per_elem] feeds the compute charge. *)
let map ?(flops_per_elem = 10.0) f t =
  Cluster.charge_compute t.cluster
    ~flops:(flops_per_elem *. float_of_int (count t));
  { t with partitions = Array.map (Array.map f) t.partitions }

(** Per-partition transform (the mapPartitions workhorse for E-steps). *)
let map_partitions ?(flops_per_elem = 10.0) f t =
  Cluster.charge_compute t.cluster
    ~flops:(flops_per_elem *. float_of_int (count t));
  { t with partitions = Array.map f t.partitions }

let filter pred t =
  Cluster.charge_compute t.cluster ~flops:(float_of_int (count t));
  {
    t with
    partitions = Array.map (fun p -> Array.of_list (List.filter pred (Array.to_list p))) t.partitions;
  }

(** Driver-side reduce over all partitions — an all-to-one aggregate of
    [bytes_per_elem]-sized partials. *)
let reduce ?(bytes_per_partial = 64.0) ~init ~combine t =
  Cluster.charge_aggregate t.cluster ~bytes_per_node:bytes_per_partial;
  Array.fold_left (Array.fold_left combine) init t.partitions

(** Full shuffle: repartition key-value pairs by key hash. Moves every
    element (genuinely) and charges the all-to-all. *)
let shuffle_by_key ?(bytes_per_elem = 32.0) (t : (int * 'v) t) =
  let np = num_partitions t in
  Cluster.charge_shuffle t.cluster
    ~bytes:(bytes_per_elem *. float_of_int (count t));
  let buckets = Array.make np [] in
  Array.iter
    (Array.iter (fun ((k, _) as kv) ->
         let p = ((k * 2654435761) land max_int) mod np in
         buckets.(p) <- kv :: buckets.(p)))
    t.partitions;
  { t with partitions = Array.map (fun l -> Array.of_list (List.rev l)) buckets }

(** groupByKey: gather all values of each key into one partition-local
    list (a full shuffle; prefer {!reduce_by_key} when a combiner
    exists — the same advice Spark gives). *)
let group_by_key ?(bytes_per_elem = 32.0) (t : (int * 'v) t) =
  let shuffled = shuffle_by_key ~bytes_per_elem t in
  let group part =
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun (k, v) ->
        Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
      part;
    Array.of_list
      (Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) tbl [])
  in
  Cluster.charge_compute shuffled.cluster ~flops:(2.0 *. float_of_int (count shuffled));
  { shuffled with partitions = Array.map group shuffled.partitions }

(** Inner join of two keyed datasets: co-partition by key (two shuffles),
    then a partition-local hash join. *)
let join ?(bytes_per_elem = 32.0) (a : (int * 'v) t) (b : (int * 'w) t) =
  if not (a.cluster == b.cluster) then
    invalid_arg "Rdd.join: the two datasets live on different clusters";
  let np = max (num_partitions a) (num_partitions b) in
  let repartition (t : (int * _) t) =
    let padded = { t with partitions = Array.init np (fun i -> if i < num_partitions t then t.partitions.(i) else [||]) } in
    shuffle_by_key ~bytes_per_elem padded
  in
  let sa = repartition a and sb = repartition b in
  let joined =
    Array.init np (fun p ->
        let tbl = Hashtbl.create 64 in
        Array.iter (fun (k, v) -> Hashtbl.add tbl k v) sa.partitions.(p);
        Array.of_list
          (Array.fold_left
             (fun acc (k, w) ->
               List.fold_left
                 (fun acc v -> (k, (v, w)) :: acc)
                 acc (Hashtbl.find_all tbl k))
             [] sb.partitions.(p)))
  in
  Cluster.charge_compute a.cluster
    ~flops:(4.0 *. float_of_int (count sa + count sb));
  { cluster = a.cluster; partitions = joined }

(** reduceByKey: local combine, shuffle, final combine — Spark's classic
    wide op. *)
let reduce_by_key ?(bytes_per_elem = 32.0) ~combine (t : (int * 'v) t) =
  let local_combine part =
    let tbl = Hashtbl.create 64 in
    Array.iter
      (fun (k, v) ->
        match Hashtbl.find_opt tbl k with
        | None -> Hashtbl.add tbl k v
        | Some v0 -> Hashtbl.replace tbl k (combine v0 v))
      part;
    Array.of_list (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Cluster.charge_compute t.cluster ~flops:(4.0 *. float_of_int (count t));
  let pre = { t with partitions = Array.map local_combine t.partitions } in
  let shuffled = shuffle_by_key ~bytes_per_elem pre in
  { shuffled with partitions = Array.map local_combine shuffled.partitions }
