(** The Table 2 machine model: historical best graph scale and GTEPS.

    HavoqGT's large-graph BFS is out-of-core: throughput is bounded by
    node-local storage bandwidth (flash/NVMe), and clusters additionally
    pay an all-to-all exchange efficiency. The largest runnable scale is
    set by aggregate storage capacity. Two calibrated constants cover all
    six machines:

    - [bytes_per_edge_traversal] = 28 B of storage traffic per traversed
      edge (semi-sorted out-of-core layout);
    - [cluster_efficiency] = 0.165, the fraction of aggregate storage
      bandwidth surviving the distributed exchange. *)

type machine = {
  name : string;
  year : int;
  nodes : int;
  storage_bw_gbs : float;  (** node-local storage bandwidth *)
  storage_tb : float;  (** node-local storage capacity *)
}

let bytes_per_edge_traversal = 28.0
let bytes_per_edge_storage = 45.0
let cluster_efficiency = 0.165
let edge_factor = 16.0

let machines =
  [
    { name = "Kraken"; year = 2011; nodes = 1; storage_bw_gbs = 1.5; storage_tb = 13.0 };
    { name = "Leviathan"; year = 2011; nodes = 1; storage_bw_gbs = 1.5; storage_tb = 50.0 };
    { name = "Hyperion"; year = 2011; nodes = 64; storage_bw_gbs = 1.5; storage_tb = 0.8 };
    { name = "Bertha"; year = 2014; nodes = 1; storage_bw_gbs = 1.5; storage_tb = 100.0 };
    { name = "Catalyst"; year = 2014; nodes = 300; storage_bw_gbs = 2.2; storage_tb = 2.7 };
    {
      name = "Final System";
      year = 2018;
      nodes = 2048;
      storage_bw_gbs = Hwsim.Link.nvme.Hwsim.Link.bw_gbs;
      storage_tb = 1.6;
    };
  ]

(** Largest Graph500 scale whose edge list fits in aggregate storage. *)
let max_scale m =
  let bytes = float_of_int m.nodes *. m.storage_tb *. 1e12 in
  let vertices = bytes /. (edge_factor *. bytes_per_edge_storage) in
  int_of_float (Float.log2 vertices)

(** Modelled GTEPS: aggregate storage bandwidth over traversal traffic,
    discounted by the exchange efficiency on multi-node machines. *)
let gteps m =
  let eff = if m.nodes = 1 then 1.0 else cluster_efficiency in
  float_of_int m.nodes *. m.storage_bw_gbs *. 1e9 *. eff
  /. bytes_per_edge_traversal /. 1e9

(** The published Table 2 rows for comparison in the bench output. *)
let paper_rows =
  [
    ("Kraken", 2011, 1, 34, 0.053);
    ("Leviathan", 2011, 1, 36, 0.053);
    ("Hyperion", 2011, 64, 36, 0.601);
    ("Bertha", 2014, 1, 37, 0.054);
    ("Catalyst", 2014, 300, 40, 4.175);
    ("Final System", 2018, 2048, 42, 67.258);
  ]
