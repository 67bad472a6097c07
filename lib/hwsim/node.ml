(** Node and cluster composition: the machines of the paper.

    A node aggregates CPU sockets and GPUs with a host link; a machine is
    [nodes] identical nodes on a fabric. Aggregate throughput helpers assume
    the embarrassingly-parallel-across-nodes regime all iCoE apps already
    had (their MPI scaling predated the project). *)

type t = {
  name : string;
  cpu : Device.t;
  cpu_sockets : int;
  gpu : Device.t option;
  gpus : int;
  host_link : Link.t;
  nvme_gb : float;  (** node-local burst tier capacity; 0 when absent *)
}

type machine = { node : t; nodes : int; topology : Topology.t }

(** The machine's injection link — for the paper-era machines (all on
    {!Topology.flat} topologies) exactly the old flat [fabric] field. *)
let fabric m = Topology.leaf_link m.topology

let cpu_peak_gflops n = float_of_int n.cpu_sockets *. n.cpu.Device.peak_gflops

let gpu_peak_gflops n =
  match n.gpu with
  | None -> 0.0
  | Some g -> float_of_int n.gpus *. g.Device.peak_gflops

let node_peak_gflops n = cpu_peak_gflops n +. gpu_peak_gflops n

(* --- the paper's machines --- *)

(** Sierra Witherspoon node: 2x P9 + 4x V100, NVLink2, 1.6 TB NVMe. *)
let witherspoon =
  {
    name = "Witherspoon";
    cpu = Device.power9;
    cpu_sockets = 2;
    gpu = Some Device.v100;
    gpus = 4;
    host_link = Link.nvlink2;
    nvme_gb = 1600.0;
  }

(** Cori-II KNL node at NERSC (SW4's comparison machine). *)
let cori_ii =
  {
    name = "Cori-II";
    cpu = Device.knl;
    cpu_sockets = 1;
    gpu = None;
    gpus = 0;
    host_link = Link.pcie3;
    nvme_gb = 0.0;
  }

(* --- exascale-generation nodes --- *)

(** Frontier node (Bauman et al. 2023): 1x Trento + 4x MI250X over
    Infinity Fabric, 2x 1.9 TB node-local NVMe. *)
let frontier_node =
  {
    name = "Frontier";
    cpu = Device.trento;
    cpu_sockets = 1;
    gpu = Some Device.mi250x;
    gpus = 4;
    host_link = Link.infinity_fabric;
    nvme_gb = 3800.0;
  }

(** Grace-Hopper superchip node (Elwasif et al. 2022 lineage): 1x Grace
    + 1x H100, coherent NVLink-C2C. *)
let grace_hopper_node =
  {
    name = "GraceHopper";
    cpu = Device.grace;
    cpu_sockets = 1;
    gpu = Some Device.h100;
    gpus = 1;
    host_link = Link.nvlink_c2c;
    nvme_gb = 0.0;
  }

(* The paper-era machines keep their flat fabrics (degenerate one-level
   topologies), so everything priced against them is bit-identical to
   the pre-topology model. *)
let sierra =
  { node = witherspoon; nodes = 4320; topology = Topology.flat Link.ib_dual_edr }

let cori = { node = cori_ii; nodes = 9688; topology = Topology.flat Link.ib_edr }

(** Frontier: 9408 nodes on a 4-plane Slingshot dragonfly — 128-node
    electrical groups, tapered global optics. *)
let frontier =
  {
    node = frontier_node;
    nodes = 9408;
    topology =
      Topology.dragonfly ~name:"slingshot-dragonfly"
        ~local:Link.slingshot_4plane ~global:Link.slingshot_optical
        ~group_radix:128 ~global_contention:3.0 ();
  }

(** Grace-Hopper system: 4608 superchip nodes on an NDR fat tree with a
    2:1 tapered core. *)
let grace_hopper =
  {
    node = grace_hopper_node;
    nodes = 4608;
    topology =
      Topology.fat_tree ~name:"ndr-fat-tree" ~leaf:Link.ib_ndr
        ~spine:Link.ib_ndr ~leaf_radix:32 ~pod_radix:16 ~core_contention:2.0
        ();
  }

let pp ppf n =
  Fmt.pf ppf "%s: %dx %a%s" n.name n.cpu_sockets Device.pp n.cpu
    (match n.gpu with
    | None -> ""
    | Some g -> Fmt.str " + %dx %a via %a" n.gpus Device.pp g Link.pp n.host_link)

(** Machine printer: node composition plus the network parameters —
    scale, per-level links, radixes, contention. *)
let pp_machine ppf m =
  Fmt.pf ppf "%a; %d nodes on %a" pp m.node m.nodes Topology.pp m.topology
