(** The Sec 4.6 performance comparison: ddcMD vs GROMACS on a Martini
    membrane patch.

    Model structure mirrors the paper's explanation of *why* ddcMD wins:
    ddcMD moved the entire MD loop into 46 double-precision GPU kernels
    with no per-step host traffic; GROMACS (single precision, 8 kernels)
    load-balances bonded/integration work onto the CPU and pays per-step
    position/force transfers. When the CPUs are busy (as in MuMMI, where
    they run the macro model and in-situ analysis), GROMACS' CPU share
    stalls and the gap widens to ~2.3x. *)

type scenario = One_gpu | Four_gpu | Mummi

let scenario_name = function
  | One_gpu -> "1 GPU + 1 CPU"
  | Four_gpu -> "4 GPUs + CPUs"
  | Mummi -> "MuMMI (CPUs busy)"

(* Calibrated per-particle double-precision flop volume of one full ddcMD
   step (nonbonded + bonded + neighbour + constraints + integrator),
   chosen so one V100 lands at the paper's 2.31 ms/step at the MuMMI
   membrane-patch size (~136.5k beads). *)
let flops_per_particle = 68_000.0

(* beads in the MuMMI membrane patch *)
let patch_beads = 136_500

let v100_dp = Hwsim.Device.v100.Hwsim.Device.peak_gflops *. 1e9 *. 0.6
let p9_dp = Hwsim.Device.power9.Hwsim.Device.peak_gflops *. 1e9 *. 0.4

type step_model = {
  serial_s : float;
  overlapped_s : float;
  step_s : float;
  dag : Icoe_obs.Prof.item array;
}

let kernel_count = 46

(** Per-step model of the ddcMD GPU pipeline: 46 kernel launches issued
    from the host on a "cpu" stream, each kernel executing on the "gpu"
    stream once its launch lands — so with overlap on, launch [i+1]
    hides under kernel [i] and only the first launch shows on the
    critical path. [Four_gpu] adds the multi-GPU scaling loss as a halo
    exchange on a "nic" stream, dependent on the mid-pipeline kernel and
    hidden under the back half. [serial_s] is the exact pre-scheduler
    expression ([compute + 46 launches], with the 0.85 scaling factor
    folded into compute for [Four_gpu]); the schedule's item durations
    sum to the same cost. *)
let ddcmd_step_model ?(particles = patch_beads) ?overlap ?trace ?node
    ?(gpu_frac = 1.0) ?(comm = Hwsim.Split.Dedicated) scenario =
  Hwsim.Split.validate gpu_frac;
  let n = float_of_int particles in
  let work_dp = n *. flops_per_particle in
  (* without a [node] the calibrated Sierra constants are used verbatim;
     with one, the same 60%-of-peak GPU / 40%-of-peak CPU efficiencies
     are applied to that node's devices *)
  let gpu_dp, host_dp, l1, halo_device =
    match node with
    | None ->
        ( v100_dp,
          2.0 *. p9_dp,
          Hwsim.Device.v100.Hwsim.Device.launch_overhead_s,
          "nvlink2" )
    | Some (nd : Hwsim.Node.t) -> (
        match nd.Hwsim.Node.gpu with
        | None -> invalid_arg "ddcmd_step_model: node has no GPU"
        | Some g ->
            ( g.Hwsim.Device.peak_gflops *. 1e9 *. 0.6,
              float_of_int nd.Hwsim.Node.cpu_sockets
              *. nd.Hwsim.Node.cpu.Hwsim.Device.peak_gflops *. 1e9 *. 0.4,
              g.Hwsim.Device.launch_overhead_s,
              nd.Hwsim.Node.host_link.Hwsim.Link.name ))
  in
  let launch k = float_of_int k *. l1 in
  let compute_serial =
    match scenario with
    | One_gpu | Mummi -> work_dp /. gpu_dp
    | Four_gpu -> work_dp /. gpu_dp /. (4.0 *. 0.85)
  in
  (* full-step cost if the host sockets ran the whole force loop; the
     split charges (1 - gpu_frac) of it on a "host" stream *)
  let host_full = work_dp /. host_dp in
  let serial_s =
    (gpu_frac *. compute_serial)
    +. ((1.0 -. gpu_frac) *. host_full)
    +. launch kernel_count
  in
  let compute_total =
    match scenario with
    | One_gpu | Mummi -> work_dp /. gpu_dp
    | Four_gpu -> work_dp /. gpu_dp /. 4.0
  in
  let halo_s =
    match scenario with
    | One_gpu | Mummi -> 0.0
    | Four_gpu ->
        (* the 85% scaling efficiency, modeled as inter-GPU halo traffic *)
        work_dp /. gpu_dp *. ((1.0 /. (4.0 *. 0.85)) -. (1.0 /. 4.0))
  in
  let sched = Hwsim.Sched.create ?overlap ?trace () in
  let kdur = compute_total /. float_of_int kernel_count in
  let hdur = host_full /. float_of_int kernel_count in
  let mid = ref [] in
  for i = 0 to kernel_count - 1 do
    let la =
      Hwsim.Sched.work sched ~stream:"cpu" ~device:"cpu" ~phase:"launch" l1
    in
    let ks =
      Hwsim.Split.co_work sched ~gpu_stream:"gpu" ~cpu_stream:"host"
        ~deps:[ la ] ~phase:"kernels" ~gpu_s:kdur ~cpu_s:hdur gpu_frac
    in
    if i = (kernel_count / 2) - 1 then mid := ks
  done;
  (if halo_s > 0.0 then
     ignore
       (Hwsim.Sched.work sched
          ~stream:
            (match comm with Hwsim.Split.Dedicated -> "nic" | Inline -> "gpu")
          ~deps:!mid ~device:halo_device ~phase:"halo" halo_s));
  let overlapped_s = Hwsim.Sched.run sched in
  let step_s = if Hwsim.Sched.overlap sched then overlapped_s else serial_s in
  { serial_s; overlapped_s; step_s; dag = Hwsim.Sched.dag sched }

(** (ddcmd_s, gromacs_s) per MD step of the membrane patch. The ddcMD
    side overlaps launches/halo under the kernel pipeline unless
    [ICOE_OVERLAP=0] (or [~overlap:false]); GROMACS' per-step host
    transfers are inherently synchronous and stay serialized. *)
let step_times ?overlap scenario =
  let n = float_of_int patch_beads in
  let work_dp = n *. flops_per_particle in
  let launch k = float_of_int k *. Hwsim.Device.v100.Hwsim.Device.launch_overhead_s in
  let xfer =
    (* positions out, forces back, 24 B each way per particle *)
    2.0 *. Hwsim.Link.transfer_time Hwsim.Link.nvlink2 ~bytes:(n *. 24.0)
  in
  (* GROMACS: single precision doubles the GPU rate; ~6.5% of the work
     (bonded + integration + constraints) stays on the CPU *)
  let cpu_frac = 0.065 in
  let gro_gpu work gpus = work *. (1.0 -. cpu_frac) /. (2.0 *. v100_dp) /. gpus in
  let gro_cpu work sockets busy = work *. cpu_frac /. p9_dp /. sockets *. busy in
  let ddc = (ddcmd_step_model ?overlap scenario).step_s in
  match scenario with
  | One_gpu ->
      let gro =
        max (gro_gpu work_dp 1.0) (gro_cpu work_dp 1.0 1.0) +. xfer +. launch 8
      in
      (ddc, gro)
  | Four_gpu ->
      (* GROMACS gets both sockets and its load balancer shifts part of
         the bonded work onto the now less-loaded GPUs (effective CPU
         share drops) *)
      let cpu_share = work_dp *. 0.05 /. p9_dp /. 2.0 in
      let gro =
        max (gro_gpu work_dp (4.0 *. 0.85)) cpu_share +. xfer +. launch 8
      in
      (ddc, gro)
  | Mummi ->
      (* the macro model and in-situ analysis occupy the CPUs: GROMACS'
         CPU share runs ~2x slower; ddcMD is unaffected *)
      let gro =
        max (gro_gpu work_dp 1.0) (gro_cpu work_dp 1.0 2.0) +. xfer +. launch 8
      in
      (ddc, gro)

(** Fraction of V100 double-precision peak that the calibrated ddcMD step
    achieves — the paper reports "over 30% of peak" for the MD app. *)
let ddcmd_peak_fraction () =
  0.6 (* the calibrated compute efficiency of the fused GPU kernels *)
