(** The Data Broker adapter (Sec 4.4): "common shared, in-memory storage"
    [25] that SparkPlug could stage shuffle data through instead of the
    JVM-side sort-spill path.

    The cost win modelled here is the one the paper's exploration found:
    tuple transfer bypasses JVM serialization entirely (native buffers),
    so a broker-mediated shuffle pays wire time plus a small per-tuple
    put/get cost only. *)

type t = { cluster : Cluster.t }

let create cluster = { cluster }

(* per-operation broker latency, and bytes/s through native buffers per
   node *)
let put_cost_s = 8e-6
let native_rate = 2.5e9

(** Cost of moving a [bytes]-sized shuffle through the broker: producers
    put, consumers get, wire once each way, no JVM serialization. *)
let shuffle_cost t ~bytes ~tuples =
  let n = float_of_int t.cluster.Cluster.config.Cluster.nodes in
  let wire =
    2.0 *. bytes
    /. (n *. Cluster.alltoall_gbs t.cluster *. 1e9 *. 0.5)
  in
  (2.0 *. float_of_int tuples *. put_cost_s /. n)
  +. (2.0 *. bytes /. (n *. native_rate))
  +. wire
