(** Real model-parallel execution: the LBANN idea at MLP scale. Each
    hidden layer's neurons are partitioned across simulated GPUs; full
    activations are reassembled by all-gathers whose bytes are charged to
    a clock. The partitioned network computes bit-identical results to the
    unpartitioned one while communication grows with shard count — where
    Fig 3's scaling curvature comes from. *)

type t = {
  reference : Mlp.t;  (** the unpartitioned network (shared weights) *)
  shards : int;
  clock : Hwsim.Clock.t;
  link : Hwsim.Link.t;
}

val create : ?link:Hwsim.Link.t -> shards:int -> Mlp.t -> t
(** Raises [Invalid_argument] when [shards < 1]. *)

val predict_proba : t -> float array -> float array
(** Sharded forward pass through {!Mlp.forward_rows}; bit-identical to
    [Mlp.predict_proba reference]. *)

val batch_time : t -> batch:int -> float
(** Per-batch time: compute divided across shards plus one ring
    all-gather per layer, from the network's real parameter counts. *)

val strong_scaling : link:Hwsim.Link.t -> Mlp.t -> batch:int -> shards:int -> float
