(** Earthquake scenarios and the sw4lite performance-variant study
    (Sec 4.9): the Hayward-fault analog at laptop scale, the kernel
    variants (naive/shared-memory CUDA, RAJA, OpenMP), the
    Sierra-vs-Cori throughput accounting, and the 26B-point production
    campaign model. *)

type shake_result = {
  pgv_surface : float array;  (** peak |velocity| per surface point *)
  basin_amplified : bool;  (** PGV higher over the basin than bedrock *)
  steps : int;
  grid_points : int;
}

val run_hayward :
  ?nx:int -> ?ny:int -> ?h:float -> ?steps:int -> unit -> shake_result
(** Deep centred source; compares mirrored equal-distance surface bands
    over basin and bedrock (the Fig 7 science at small scale). *)

type variant = Naive_cuda | Shared_cuda | Raja | Cpu_openmp

val variant_name : variant -> string

val variant_time_per_step : ?fused:bool -> Grid.t -> variant -> float
(** Simulated seconds/step of the RHS kernel; [fused] merges the stress
    and divergence sweeps into one launch (the kernel-merging
    optimization). *)

val node_throughput : Hwsim.Node.t -> points:int -> float
(** Grid-point updates per second per node (GPU-resident on GPU nodes),
    priced on a square grid of about [points] points from its size
    alone: no grid is built, so any point count costs the same. *)

val node_cpu_throughput : Hwsim.Node.t -> points:int -> float
(** Grid-point updates per second of the node's host sockets alone —
    the CPU side of a heterogeneous work split ({!Hwsim.Split}). Equals
    {!node_throughput} on CPU-only nodes. *)

type step_model = {
  point_s : float;  (** RHS update of all per-node points, seconds *)
  halo_s : float;  (** surface-to-volume halo exchange, seconds *)
  boundary_frac : float;
      (** fraction of the point update (the 2-deep face shell, capped at
          0.5) that must wait for the halo *)
  serial_s : float;  (** [point_s +. halo_s] *)
  overlapped_s : float;
      (** [max interior halo + boundary]: halo on the "nic" stream under
          interior compute on the "gpu" stream *)
  step_s : float;
      (** the charged per-step seconds: [overlapped_s] with overlap on,
          the exact pre-scheduler [serial_s] otherwise *)
  dag : Icoe_obs.Prof.item array;
      (** the scheduled interior/halo/boundary DAG, ready for
          {!Icoe_obs.Prof.analyze} critical-path blame *)
}

val production_step_model :
  ?overlap:bool -> ?trace:Hwsim.Trace.t ->
  ?placement:Hwsim.Topology.placement -> ?gpu_frac:float ->
  ?comm:Hwsim.Split.comm ->
  Hwsim.Node.machine -> nodes:int -> grid_points:float -> step_model
(** Per-timestep cost model of the production campaign. [overlap]
    defaults to {!Hwsim.Sched.overlap_enabled}; when a [trace] is given,
    one step's interior/halo/boundary items are charged into it. The
    halo is priced at the topology level the allocation's [placement]
    (default [Contiguous]) crosses — on flat machines, exactly the old
    single-fabric transfer.

    [gpu_frac] (default 1.0) is the accelerator's share of the point
    update; the host sockets co-execute the rest on a "cpu" stream at
    {!node_cpu_throughput} ([point_s] stays the all-GPU cost;
    [serial_s] blends the two sides).
    [comm] places the halo on its own "nic" stream ([Dedicated], the
    default) or inline on the compute stream. At the defaults the model
    is bit-identical to the pre-split one; CPU-only nodes ignore the
    split. *)

val production_run_hours :
  ?overlap:bool -> ?placement:Hwsim.Topology.placement -> Hwsim.Node.machine ->
  nodes:int -> grid_points:float -> steps:int -> float
(** Wall-clock hours of the 26B-point campaign on a machine partition,
    including halo exchange (overlapped with interior compute unless
    disabled). A fixed 280x multiplier calibrates the 2D model kernel to
    the 3D production kernel's per-point work so the 256-node Sierra run
    lands at the paper's ~10 h. *)

val nodes_for_deadline :
  ?overlap:bool -> ?placement:Hwsim.Topology.placement -> Hwsim.Node.machine ->
  grid_points:float -> steps:int -> hours:float -> int
(** Nodes needed to finish the campaign within a deadline. *)
