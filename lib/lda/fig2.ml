(** Fig 2 harness: default vs optimized SparkPlug stack on the
    Wikipedia-scale LDA workload (the 390-language, 54M-word dictionary
    run of Sec 4.4, on 32 nodes of the final system).

    The algorithm is the same variational EM as [Vem] (which is run for
    real, at small scale, in the tests and examples); here the per-phase
    costs of one paper-scale iteration are charged through the cluster
    cost model, whose components (JVM drag, serialization rates, adaptive
    shuffle, tree aggregate) are each independently unit-tested. *)

type workload = {
  tokens : float;  (** corpus token count *)
  distinct_pairs : float;  (** distinct (doc, word) pairs, shuffle payload *)
  vocab : float;
  k : int;
}

(** Wikipedia-scale numbers: ~3B tokens, 54M-word dictionary. *)
let wikipedia = { tokens = 3.0e9; distinct_pairs = 2.1e9; vocab = 54.0e6; k = 16 }

(** Charge one EM iteration of [w] on [cluster]. *)
let charge_iteration (cluster : Sparkle.Cluster.t) w =
  let k = float_of_int w.k in
  let lambda_bytes = w.vocab *. k *. 8.0 in
  let nodes = float_of_int cluster.Sparkle.Cluster.config.Sparkle.Cluster.nodes in
  (* broadcast a per-node slice of the model *)
  Sparkle.Cluster.charge_broadcast cluster ~bytes:(lambda_bytes /. nodes);
  (* E-step compute: ~160 flops per token per topic *)
  Sparkle.Cluster.charge_compute cluster ~flops:(w.tokens *. k *. 160.0);
  (* shuffle the sufficient statistics by word *)
  Sparkle.Cluster.charge_shuffle cluster ~bytes:(w.distinct_pairs *. k *. 8.0);
  (* all-to-one combine of each node's model slice *)
  Sparkle.Cluster.charge_aggregate cluster ~bytes_per_node:(lambda_bytes /. nodes)

(** Run 5 charged iterations under a stack configuration on 32 nodes;
    returns the cluster (read the clock for the breakdown). *)
let run ~optimized w =
  let cfg =
    if optimized then Sparkle.Cluster.optimized_config ~nodes:32 ()
    else Sparkle.Cluster.default_config ~nodes:32 ()
  in
  let cluster = Sparkle.Cluster.create cfg in
  for _ = 1 to 5 do
    charge_iteration cluster w
  done;
  cluster
