(** Hierarchical network topologies: node -> leaf switch -> spine/fabric.

    A topology is a leaf-first stack of switching levels, each priced by
    its own {!Link.t} and derated by a contention factor when
    oversubscribed. What a transfer costs depends on how many levels it
    crosses, which depends on the gang's {!placement}.

    {b Bit-identity contract:} a one-level topology ({!flat}) prices
    every transfer as exactly [Link.transfer_time] of its single link —
    same floats, same operations — so every pre-topology cost model is
    recovered unchanged by wrapping its old fabric link. All machines
    that predate this module do exactly that, keeping harness outputs
    and bench baselines byte-identical by default. *)

type placement =
  | Contiguous  (** one block of consecutive node ids *)
  | Rank_reordered
      (** fragmented allocation, ranks reordered for locality: the
          contiguous crossing plus one level of spill *)
  | Random_spread  (** scattered allocation: every message pays the top *)

type level = {
  name : string;
  link : Link.t;
  radix : int;
      (** fan-out of a level-[i] subtree in level-[i-1] subtrees *)
  contention : float;  (** >= 1: oversubscription bandwidth divisor *)
}

type t = { name : string; levels : level array }  (** leaf-first *)

val make : name:string -> level list -> t
(** Validating constructor: raises [Invalid_argument] on an empty level
    list, a radix < 2, a contention < 1 or non-finite, or an invalid
    link (re-checked through {!Link.make}). *)

val flat : Link.t -> t
(** The degenerate one-level topology every pre-topology machine model
    assumed: the whole machine behind one flat link, named
    ["flat/<link>"]. *)

val fat_tree :
  name:string -> leaf:Link.t -> spine:Link.t -> leaf_radix:int ->
  pod_radix:int -> ?core_contention:float -> unit -> t
(** Three levels: leaf switches ([leaf_radix] nodes each), pods
    ([pod_radix] leaves each), and a core tapered by [core_contention]
    (default 2.0). *)

val dragonfly :
  name:string -> local:Link.t -> global:Link.t -> group_radix:int ->
  ?global_contention:float -> unit -> t
(** Two levels: electrical all-to-all groups of [group_radix] nodes,
    joined by global optical links tapered by [global_contention]
    (default 2.0). *)

val depth : t -> int
val is_flat : t -> bool

val leaf_link : t -> Link.t
(** The level-0 (injection) link; for {!flat} topologies, the old
    machine fabric itself. *)

val crossing : t -> nodes:int -> placement -> int
(** Highest level a gang of [nodes] endpoints crosses under a
    placement. Monotone: contiguous <= rank-reordered <= random. *)

val crossing_of_ids : t -> int list -> int
(** Highest level actually crossed by a concrete allocation (lowest
    common ancestor of the node ids); 0 for gangs of at most one. *)

val hops : t -> level:int -> int
(** Link traversals of a path crossing levels [0..level] (2 per level:
    up and back down); 1 on flat topologies. *)

val path_time : t -> level:int -> bytes:float -> float
(** Point-to-point transfer crossing levels [0..level]: per level, two
    hop latencies plus contention-derated wire time. Strictly monotone
    in [level] for positive [bytes]; zero bytes cost 0. One level
    degenerates to exactly [Link.transfer_time]. *)

val gang_transfer_time :
  t -> nodes:int -> placement:placement -> bytes:float -> float
(** [path_time] at the gang's {!crossing}. *)

val alltoall_gbs : t -> nodes:int -> float
(** Effective per-node all-to-all bandwidth of a contiguous gang: the
    most contended crossed level throttles the collective; the fabric
    bandwidth itself when flat. *)

val allreduce_rounds : int -> float
(** [ceil (log2 (max 2 nodes))] — the recursive-doubling round count
    every allreduce model in the repo uses. *)

val allreduce_time :
  t -> nodes:int -> placement:placement -> bytes:float -> float
(** Recursive-doubling allreduce: round [r] pairs partners [2^r] ranks
    apart, so contiguous blocks keep early rounds inside leaf subtrees
    while random spreads pay the top every round. Flat recovers
    [rounds *. transfer_time fabric] bit-identically. *)

val placement_penalty : t -> nodes:int -> level:int -> float
(** Service-time inflation of a gang that crossed [level] instead of
    its contiguous-best crossing (ratio of reference gang transfers);
    1.0 when no worse than contiguous, and always on flat topologies. *)

val pp : Format.formatter -> t -> unit
