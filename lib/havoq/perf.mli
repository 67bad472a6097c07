(** The Table 2 machine model: historical best graph scale and GTEPS.

    HavoqGT's large-graph BFS is out-of-core: throughput is bounded by
    node-local storage bandwidth, clusters additionally pay an all-to-all
    exchange efficiency, and the largest runnable scale is set by
    aggregate storage capacity. Two calibrated constants cover all six
    machines. *)

type machine = {
  name : string;
  year : int;
  nodes : int;
  storage_bw_gbs : float;
  storage_tb : float;
}

val machines : machine list
(** Kraken, Leviathan, Hyperion, Bertha, Catalyst, Final System. *)

val max_scale : machine -> int
(** Largest Graph500 scale whose edge list fits in aggregate storage. *)

val gteps : machine -> float
(** Modelled GTEPS. *)

val paper_rows : (string * int * int * int * float) list
(** The published Table 2 rows: (name, year, nodes, scale, GTEPS). *)
