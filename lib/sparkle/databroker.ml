(** The Data Broker adapter (Sec 4.4): "common shared, in-memory storage"
    [25] that SparkPlug could stage shuffle data through instead of the
    JVM-side sort-spill path.

    Functionally a distributed key-value store with namespaces; the cost
    win modelled here is the one the paper's exploration found: tuple
    transfer bypasses JVM serialization entirely (native buffers), so a
    broker-mediated shuffle pays wire time plus a small per-tuple put/get
    cost only. *)

type t = {
  cluster : Cluster.t;
  namespaces : (string, (string, float array) Hashtbl.t) Hashtbl.t;
  put_cost_s : float;  (** per-operation broker latency *)
  native_rate : float;  (** bytes/s through native buffers, per node *)
}

let create ?(put_cost_s = 8e-6) ?(native_rate = 2.5e9) cluster =
  { cluster; namespaces = Hashtbl.create 8; put_cost_s; native_rate }

let namespace t name =
  match Hashtbl.find_opt t.namespaces name with
  | Some ns -> ns
  | None ->
      let ns = Hashtbl.create 64 in
      Hashtbl.add t.namespaces name ns;
      ns

(** Store a tuple; charges broker latency plus native-buffer transfer. *)
let put t ~ns ~key value =
  Hashtbl.replace (namespace t ns) key value;
  let bytes = 8.0 *. float_of_int (Array.length value) in
  Hwsim.Clock.tick t.cluster.Cluster.clock ~phase:"broker"
    (t.put_cost_s +. (bytes /. t.native_rate))

let get t ~ns ~key =
  let v = Hashtbl.find_opt (namespace t ns) key in
  (match v with
  | Some value ->
      let bytes = 8.0 *. float_of_int (Array.length value) in
      Hwsim.Clock.tick t.cluster.Cluster.clock ~phase:"broker"
        (t.put_cost_s +. (bytes /. t.native_rate))
  | None -> Hwsim.Clock.tick t.cluster.Cluster.clock ~phase:"broker" t.put_cost_s);
  v

let delete_namespace t ns = Hashtbl.remove t.namespaces ns

(** Cost of moving a [bytes]-sized shuffle through the broker: producers
    put, consumers get, wire once each way, no JVM serialization. *)
let shuffle_cost t ~bytes ~tuples =
  let n = float_of_int t.cluster.Cluster.config.Cluster.nodes in
  let wire =
    2.0 *. bytes
    /. (n *. Cluster.alltoall_gbs t.cluster *. 1e9 *. 0.5)
  in
  (2.0 *. float_of_int tuples *. t.put_cost_s /. n)
  +. (2.0 *. bytes /. (n *. t.native_rate))
  +. wire
