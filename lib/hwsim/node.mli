(** Node and cluster composition: the machines of the paper.

    A node aggregates CPU sockets and GPUs with a host link; a machine is
    [nodes] identical nodes on a fabric. *)

type t = {
  name : string;
  cpu : Device.t;
  cpu_sockets : int;
  gpu : Device.t option;
  gpus : int;
  host_link : Link.t;
  nvme_gb : float;  (** node-local burst-tier capacity; 0 when absent *)
}

type machine = { node : t; nodes : int; topology : Topology.t }
(** [nodes] identical nodes joined by a hierarchical network. The
    paper-era machines all carry {!Topology.flat} topologies, which
    price transfers bit-identically to the old flat [fabric] field. *)

val fabric : machine -> Link.t
(** The machine's injection (level-0) link — for flat topologies exactly
    the old [fabric] field. *)

val cpu_peak_gflops : t -> float
val gpu_peak_gflops : t -> float
val node_peak_gflops : t -> float

val witherspoon : t
(** Sierra node: 2x P9 + 4x V100 on NVLink2, 1.6 TB NVMe. *)

val cori_ii : t
(** KNL node at NERSC (SW4's comparison machine). *)

val sierra : machine
val cori : machine

val frontier : machine
(** 9408 nodes on a 4-plane Slingshot dragonfly (128-node groups,
    3:1-tapered global optics). *)

val grace_hopper : machine
(** 4608 superchip nodes on an NDR fat tree with a 2:1 tapered core. *)

val pp_machine : Format.formatter -> machine -> unit
(** Node composition plus the network parameters: machine scale and the
    topology's per-level links, radixes and contention. *)
