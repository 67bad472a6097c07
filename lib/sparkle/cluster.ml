(** The SparkPlug execution substrate: a Spark-like cluster with an
    explicit cost model for the three bottlenecks the vendor team profiled
    (Sec 4.4): JVM overheads (GC, serialization, task launch), the shuffle
    (all-to-all) implementation, and the aggregate (all-to-one) primitive.

    The [optimized] configuration bundles the paper's fixes: IBM SDK JVM
    (better GC and lock contention, cheaper ser/deser), the adaptive
    shuffle of [20, 21], and tree-based all-to-one operations. *)

type config = {
  nodes : int;
  cores_per_node : int;
  jvm_optimized : bool;
  adaptive_shuffle : bool;
  tree_aggregate : bool;
  topology : Hwsim.Topology.t;
      (** the interconnect under the collectives; the default flat
          dual-rail EDR prices them bit-identically to the old single
          [fabric : Link.t] field *)
}

let default_config ?(nodes = 32)
    ?(topology = Hwsim.Topology.flat Hwsim.Link.ib_dual_edr) () =
  {
    nodes;
    cores_per_node = 40;
    jvm_optimized = false;
    adaptive_shuffle = false;
    tree_aggregate = false;
    topology;
  }

let optimized_config ?(nodes = 32) ?topology () =
  {
    (default_config ~nodes ?topology ()) with
    jvm_optimized = true;
    adaptive_shuffle = true;
    tree_aggregate = true;
  }

type t = { config : config; clock : Hwsim.Clock.t; trace : Hwsim.Trace.t }

let create config =
  let clock = Hwsim.Clock.create () in
  { config; clock; trace = Hwsim.Trace.create ~root:"sparkle" clock }

let total_cores t = t.config.nodes * t.config.cores_per_node

(* --- JVM cost parameters --- *)

(** Per-task launch/schedule overhead. *)
let task_overhead t = if t.config.jvm_optimized then 2.0e-3 else 5.0e-3

(** Serialization throughput, bytes/s (Kryo-ish vs optimized). *)
let ser_rate t = if t.config.jvm_optimized then 600e6 else 150e6

(** GC drag: fraction added on top of compute time. *)
let gc_drag t = if t.config.jvm_optimized then 0.07 else 0.28

(* --- charging primitives ---

   All charges go through the span tracer (which ticks [t.clock]), so
   every stage of a job is visible in the Chrome trace export and the
   per-phase rollups still agree with the clock breakdown. *)

let charge tr ~phase dt = Hwsim.Trace.charge tr ~device:"cluster" ~phase dt

(* --- the cost model, as pure time functions, priced by the charge_*
   primitives below --- *)

(** Effective per-node all-to-all bandwidth of the cluster's gang, GB/s.
    Flat topologies return the fabric's bandwidth itself — keeping every
    wire-time expression below bit-identical to the old single-link
    model — while hierarchical ones are throttled by the most contended
    level the gang crosses. *)
let alltoall_gbs t =
  Hwsim.Topology.alltoall_gbs t.config.topology ~nodes:t.config.nodes

(* Hierarchical collectives climb the tree: combine/broadcast round [r]
   pairs partners 2^r ranks apart, so the round's wire time is priced at
   the level that distance crosses (contiguous block placement — a Spark
   cluster is allocated as one gang). The [2.0 *. b] matches the old
   half-duplex derate [b /. (bw *. 0.5)]. *)
let round_wire_time cfg ~round b =
  let span = min cfg.nodes (1 lsl min 62 (round + 1)) in
  let level =
    Hwsim.Topology.crossing cfg.topology ~nodes:span Hwsim.Topology.Contiguous
  in
  Hwsim.Topology.path_time cfg.topology ~level ~bytes:(2.0 *. b)

(** Seconds of an all-to-all shuffle of [bytes] total. The default
    sort-based shuffle serializes, spills to disk and re-reads; the
    adaptive shuffle pipelines in memory. The wire term is throttled by
    the topology's effective all-to-all bandwidth. *)
let shuffle_seconds t ~bytes =
  let cfg = t.config in
  let n = float_of_int cfg.nodes in
  let wire =
    bytes /. (n *. alltoall_gbs t *. 1e9 *. 0.5)
  in
  let serde = 2.0 *. bytes /. (n *. ser_rate t) in
  let spill =
    if cfg.adaptive_shuffle then 0.0
    else (* write + read at disk speed per node *)
      2.0 *. bytes /. (n *. 500e6)
  in
  let tasks = task_overhead t *. 2.0 in
  wire +. serde +. spill +. tasks

(** Seconds of an all-to-one aggregate of [bytes] per node toward the
    driver. Flat policy: the driver ingests every node's contribution
    serially. Tree: log2(nodes) combine rounds, each pairwise and
    parallel — at least one round even for a single node (clamped like
    broadcast, so a one-node tree aggregate still pays its combine
    instead of rounding to zero seconds). On hierarchical topologies
    each tree round is priced at the switch level its pair distance
    crosses; one-level topologies keep the exact flat-fabric
    expressions. *)
let aggregate_seconds t ~bytes_per_node =
  let cfg = t.config in
  let flat = Hwsim.Topology.is_flat cfg.topology in
  let fabric_gbs = (Hwsim.Topology.leaf_link cfg.topology).Hwsim.Link.bw_gbs in
  let link_time b = b /. (fabric_gbs *. 1e9 *. 0.5) in
  let serde b = b /. ser_rate t in
  if cfg.tree_aggregate then
    if flat then
      let rounds = Float.ceil (Float.log2 (float_of_int (max 2 cfg.nodes))) in
      rounds *. (link_time bytes_per_node +. serde bytes_per_node +. task_overhead t)
    else begin
      let rounds =
        int_of_float (Hwsim.Topology.allreduce_rounds cfg.nodes)
      in
      let s = ref 0.0 in
      for r = 0 to rounds - 1 do
        s :=
          !s
          +. round_wire_time cfg ~round:r bytes_per_node
          +. serde bytes_per_node +. task_overhead t
      done;
      !s
    end
  else if flat then
    float_of_int cfg.nodes
    *. (link_time bytes_per_node +. serde bytes_per_node)
    +. task_overhead t
  else
    (* serial driver ingest: every contribution crosses the level the
       whole gang spans *)
    let level =
      Hwsim.Topology.crossing cfg.topology ~nodes:cfg.nodes
        Hwsim.Topology.Contiguous
    in
    let wire =
      Hwsim.Topology.path_time cfg.topology ~level
        ~bytes:(2.0 *. bytes_per_node)
    in
    (float_of_int cfg.nodes *. (wire +. serde bytes_per_node))
    +. task_overhead t

(** Seconds of a driver-to-all broadcast of [bytes] (tree-shaped; on
    hierarchical topologies each round priced at its crossing level). *)
let broadcast_seconds t ~bytes =
  let cfg = t.config in
  if Hwsim.Topology.is_flat cfg.topology then
    let fabric_gbs = (Hwsim.Topology.leaf_link cfg.topology).Hwsim.Link.bw_gbs in
    let rounds = Float.ceil (Float.log2 (float_of_int (max 2 cfg.nodes))) in
    rounds *. ((bytes /. (fabric_gbs *. 1e9 *. 0.5)) +. (bytes /. ser_rate t))
  else begin
    let rounds = int_of_float (Hwsim.Topology.allreduce_rounds cfg.nodes) in
    let s = ref 0.0 in
    for r = 0 to rounds - 1 do
      s := !s +. round_wire_time cfg ~round:r bytes +. (bytes /. ser_rate t)
    done;
    !s
  end

(* --- blocking charges --- *)

(** Charge a parallel compute stage (two charges — work then launch — so
    existing per-phase accounting is unchanged). *)
let charge_compute t ~flops =
  let per_core = 2.0e9 in
  let ideal = flops /. (float_of_int (total_cores t) *. per_core) in
  charge t.trace ~phase:"compute" (ideal *. (1.0 +. gc_drag t));
  charge t.trace ~phase:"compute" (task_overhead t)

let charge_shuffle t ~bytes =
  charge t.trace ~phase:"shuffle" (shuffle_seconds t ~bytes)

let charge_aggregate t ~bytes_per_node =
  charge t.trace ~phase:"aggregate" (aggregate_seconds t ~bytes_per_node)

let charge_broadcast t ~bytes =
  charge t.trace ~phase:"broadcast" (broadcast_seconds t ~bytes)

let elapsed t = Hwsim.Clock.total t.clock
let breakdown t = Hwsim.Clock.breakdown t.clock
let trace t = t.trace
