(** The Sec 4.6 performance comparison: ddcMD vs GROMACS on a Martini
    membrane patch.

    ddcMD moved the entire MD loop into 46 double-precision GPU kernels
    with no per-step host traffic; GROMACS (single precision, 8 kernels)
    load-balances bonded/integration work onto the CPU and pays per-step
    transfers. When the CPUs are busy (MuMMI), GROMACS' CPU share stalls
    and the gap widens to ~2.3x. *)

type scenario = One_gpu | Four_gpu | Mummi

val scenario_name : scenario -> string

type step_model = {
  serial_s : float;
      (** the exact pre-scheduler ddcMD step time: compute + 46 launch
          overheads (multi-GPU scaling folded into compute) *)
  overlapped_s : float;
      (** critical path with launches issued from a "cpu" stream under
          the "gpu" kernel pipeline and the [Four_gpu] halo on a "nic"
          stream — only the first launch stays exposed *)
  step_s : float;  (** the charged time: overlapped or serial *)
  dag : Icoe_obs.Prof.item array;
      (** the scheduled launch/kernel/halo DAG, ready for
          {!Icoe_obs.Prof.analyze} critical-path blame *)
}

val kernel_count : int
(** The 46 fused double-precision kernels of one ddcMD step. *)

val ddcmd_step_model :
  ?particles:int -> ?overlap:bool -> ?trace:Hwsim.Trace.t ->
  ?node:Hwsim.Node.t -> ?gpu_frac:float -> ?comm:Hwsim.Split.comm ->
  scenario -> step_model
(** Per-step launch/kernel/halo pipeline model for the ddcMD side.
    [particles] defaults to the MuMMI membrane patch (136 500 beads).
    [overlap] defaults to {!Hwsim.Sched.overlap_enabled}; a bound
    [trace] receives one step's items.

    Without a [node] the calibrated Sierra constants (V100 at 60% DP
    peak, 2x P9 at 40%) are used verbatim; with one, the same
    efficiencies are applied to that node's devices (raises
    [Invalid_argument] on a GPU-less node). [gpu_frac] (default 1.0)
    splits each fused kernel between the "gpu" stream and a "host"
    stream of co-executing CPU slices; [comm] keeps the [Four_gpu] halo
    on its own "nic" stream ([Dedicated], the default) or issues it
    inline on the compute stream. At the defaults the model is
    bit-identical to the pre-split one. *)

val step_times : ?overlap:bool -> scenario -> float * float
(** (ddcmd_seconds, gromacs_seconds) per MD step of the membrane patch.
    The ddcMD side uses {!ddcmd_step_model}'s charged time; GROMACS'
    synchronous per-step host transfers stay serialized. *)

val ddcmd_peak_fraction : unit -> float
(** Fraction of V100 DP peak the calibrated step achieves (paper: >30%). *)
