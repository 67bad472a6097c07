(** Fig 2 harness: default vs optimized SparkPlug stack on the
    Wikipedia-scale LDA workload (32 nodes of the final system). The
    algorithm itself runs for real at small scale in {!Vem}; here one
    paper-scale iteration's phase costs are charged through the cluster
    cost model whose components are individually unit-tested. *)

type workload = {
  tokens : float;
  distinct_pairs : float;  (** distinct (doc, word) pairs: shuffle payload *)
  vocab : float;
  k : int;
}

val wikipedia : workload
(** ~3B tokens, 54M-word dictionary. *)

val charge_iteration : Sparkle.Cluster.t -> workload -> unit

val run : optimized:bool -> workload -> Sparkle.Cluster.t
(** Run 5 charged iterations under a stack configuration on 32 nodes;
    read the returned cluster's clock for the breakdown. *)
