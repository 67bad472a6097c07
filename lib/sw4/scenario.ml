(** Earthquake scenarios and the sw4lite performance-variant study.

    The science scenario is a scaled-down Hayward-fault analog: a soft
    sedimentary basin over stiff bedrock, a shallow dislocation-like source,
    and surface receivers producing a peak-ground-velocity "shake map" —
    the content of the paper's Fig 7 at laptop scale.

    The performance side reproduces Sec 4.9: sw4lite kernel variants
    (naive CUDA, shared-memory CUDA at ~2x, RAJA at ~0.7x of CUDA) and the
    Sierra-vs-Cori throughput accounting behind the abstract's 14x claim. *)

(** Layered basin material: soft low-velocity basin in the upper-left
    region, stiff bedrock elsewhere. (rho, vp, vs) in SI units. *)
let hayward_material ~x ~y =
  let basin_depth = 800.0 in
  let basin_edge = 4000.0 in
  if y < basin_depth && x < basin_edge then (1800.0, 1800.0, 700.0)
  else if y < 2.0 *. basin_depth then (2400.0, 3500.0, 1800.0)
  else (2800.0, 5500.0, 3200.0)

type shake_result = {
  pgv_surface : float array;  (** peak |velocity| per surface point *)
  basin_amplified : bool;  (** PGV higher over the basin than bedrock *)
  steps : int;
  grid_points : int;
}

(** Run the scenario on an (nx x ny) grid with spacing [h] metres for
    [steps] steps; the source is a shallow double-couple-like force pair
    near the basin edge. *)
let run_hayward ?(nx = 160) ?(ny = 96) ?(h = 100.0) ?(steps = 600) () =
  let grid = Grid.create ~nx ~ny ~h in
  Grid.set_material grid hayward_material;
  let f0 = 1.2 in
  (* deep source centred in x: the left surface band sits over the soft
     basin, the mirrored right band over bedrock, at equal epicentral
     distance *)
  let src =
    Source.point_force ~i:(nx / 2) ~j:(ny / 2)
      ~fx:(2.0e9) ~fy:(-1.5e9)
      ~stf:(Source.ricker ~f0 ~t0:(2.0 /. f0))
  in
  let solver = Solver.create ~sources:[ src ] grid in
  let pgv = Array.make nx 0.0 in
  let module Fbuf = Icoe_util.Fbuf in
  let uxp = Fbuf.copy solver.Solver.ux and uyp = Fbuf.copy solver.Solver.uy in
  let jsurf = Elastic.margin in
  for _ = 1 to steps do
    Solver.step solver;
    for i = 0 to nx - 1 do
      let k = Grid.idx grid i jsurf in
      let vx = (Fbuf.get solver.Solver.ux k -. Fbuf.get uxp k) /. solver.Solver.dt in
      let vy = (Fbuf.get solver.Solver.uy k -. Fbuf.get uyp k) /. solver.Solver.dt in
      let v = sqrt ((vx *. vx) +. (vy *. vy)) in
      if v > pgv.(i) then pgv.(i) <- v
    done;
    Fbuf.blit ~src:solver.Solver.ux ~dst:uxp;
    Fbuf.blit ~src:solver.Solver.uy ~dst:uyp
  done;
  (* mirrored surface bands at equal distance from the epicentre: left band
     over the basin, right band over bedrock *)
  let basin_edge_i = min (int_of_float (4000.0 /. h)) (nx / 2) in
  let band_lo = max Elastic.margin (basin_edge_i / 2) in
  let band = Array.sub pgv band_lo (basin_edge_i - band_lo) in
  let mirror =
    Array.init (Array.length band) (fun k -> pgv.(nx - 1 - (band_lo + k)))
  in
  let basin_pgv = Icoe_util.Stats.mean band in
  let rock_pgv = Icoe_util.Stats.mean mirror in
  {
    pgv_surface = pgv;
    basin_amplified = basin_pgv > rock_pgv;
    steps;
    grid_points = nx * ny;
  }

(* --- sw4lite kernel variants (Sec 4.9) --- *)

type variant = Naive_cuda | Shared_cuda | Raja | Cpu_openmp

let variant_name = function
  | Naive_cuda -> "cuda-naive"
  | Shared_cuda -> "cuda-shared"
  | Raja -> "raja"
  | Cpu_openmp -> "omp-cpu"

let variant_policy = function
  | Naive_cuda -> Prog.Policy.Cuda
  | Shared_cuda -> Prog.Policy.Cuda_shared
  | Raja -> Prog.Policy.Raja_cuda
  | Cpu_openmp -> Prog.Policy.Openmp 22

let variant_device = function
  | Cpu_openmp -> Hwsim.Device.power9
  | _ -> Hwsim.Device.v100

(** Simulated seconds per timestep of the RHS kernel for a grid, under a
    variant. [fused] merges the stress and divergence sweeps into one
    launch pass (the paper's kernel-merging optimization). *)
let variant_time_per_step ?(fused = false) (g : Grid.t) v =
  let w = Elastic.work g in
  let w = if fused then { w with Hwsim.Kernel.launches = 1 } else w in
  let device = variant_device v in
  let policy = variant_policy v in
  let eff = Prog.Policy.efficiency policy device in
  let launch =
    float_of_int w.Hwsim.Kernel.launches
    *. Prog.Policy.launch_multiplier policy
    *. device.Hwsim.Device.launch_overhead_s
  in
  launch +. Hwsim.Roofline.time ~eff device { w with Hwsim.Kernel.launches = 0 }

(* Per-node (whole-node, host-sockets) update rates of one step over a
   square grid of about [points] points, priced from its size alone *)
let node_rates (node : Hwsim.Node.t) ~points =
  let side = max 9 (int_of_float (sqrt (float_of_int points))) in
  let points = side * side in
  let w = Elastic.work_of_points points in
  let per_gpu =
    match node.Hwsim.Node.gpu with
    | Some gpu ->
        let eff = Prog.Policy.efficiency Prog.Policy.Cuda gpu in
        let t = Hwsim.Roofline.time ~eff gpu w in
        float_of_int points /. t
    | None -> 0.0
  in
  let cpu_eff =
    Prog.Policy.efficiency
      (Prog.Policy.Openmp node.Hwsim.Node.cpu.Hwsim.Device.lanes)
      node.Hwsim.Node.cpu
  in
  let t_cpu = Hwsim.Roofline.time ~eff:cpu_eff node.Hwsim.Node.cpu w in
  let per_cpu = float_of_int points /. t_cpu in
  let node_rate =
    if node.Hwsim.Node.gpus > 0 then float_of_int node.Hwsim.Node.gpus *. per_gpu
    else float_of_int node.Hwsim.Node.cpu_sockets *. per_cpu
  in
  (node_rate, float_of_int node.Hwsim.Node.cpu_sockets *. per_cpu)

(** Grid-point updates per second per node for the full solver on a
    machine, used for the Sierra-vs-Cori throughput comparison. A Sierra
    node runs 4 GPU-resident solvers; a Cori node runs the KNL OpenMP
    code. *)
let node_throughput (node : Hwsim.Node.t) ~points =
  fst (node_rates node ~points)

(** Grid-point updates per second of the node's host sockets alone —
    the CPU side of a heterogeneous work split. On a CPU-only node this
    equals {!node_throughput}. *)
let node_cpu_throughput (node : Hwsim.Node.t) ~points =
  snd (node_rates node ~points)

(* --- the production campaign model (Sec 4.9) --- *)

type step_model = {
  point_s : float;
  halo_s : float;
  boundary_frac : float;
  serial_s : float;
  overlapped_s : float;
  step_s : float;
  dag : Icoe_obs.Prof.item array;
}

(* the production 3D curvilinear elastic kernel with supergrid layers,
   attenuation and imaging does ~280x the work per point of the 2D model
   kernel (calibrated once so the Sierra run lands at the paper's ~10 h) *)
let work_multiplier = 280.0

(** Per-timestep cost model of the production run on [nodes] nodes: the
    RHS update of all per-node points ([point_s]) plus a
    surface-to-volume halo exchange ([halo_s]). With overlap enabled the
    halo transfer rides a "nic" stream under the interior-point update
    on the "gpu" stream; only the boundary shell (the [boundary_frac]
    of points within two layers of a face, capped at half the block)
    waits for the halo, so [overlapped_s = max interior halo + boundary]
    — strictly below [serial_s] whenever both compute and halo cost
    anything. [step_s] is the charged per-step time: [overlapped_s]
    under overlap, the exact pre-scheduler [serial_s] otherwise. *)
let production_step_model ?overlap ?trace
    ?(placement = Hwsim.Topology.Contiguous) ?(gpu_frac = 1.0)
    ?(comm = Hwsim.Split.Dedicated) (machine : Hwsim.Node.machine) ~nodes
    ~grid_points =
  if not (nodes >= 1 && nodes <= machine.Hwsim.Node.nodes) then
    invalid_arg
      (Printf.sprintf "Scenario.production_step_model: nodes = %d outside 1..%d"
         nodes machine.Hwsim.Node.nodes);
  Hwsim.Split.validate gpu_frac;
  (* a CPU-only node has no accelerator to split against *)
  let split =
    if machine.Hwsim.Node.node.Hwsim.Node.gpus = 0 then 1.0 else gpu_frac
  in
  let points_per_node = grid_points /. float_of_int nodes in
  let rate_points = int_of_float (min points_per_node 16_000_000.0) in
  let rate = node_throughput machine.Hwsim.Node.node ~points:rate_points in
  let point_t = work_multiplier *. points_per_node /. rate in
  (* full-step cost if the host sockets ran every point; the split's CPU
     side charges (1 - split) of this *)
  let cpu_point_t =
    if split >= 1.0 then 0.0
    else
      work_multiplier *. points_per_node
      /. node_cpu_throughput machine.Hwsim.Node.node ~points:rate_points
  in
  (* halo: 6 faces of the per-node block, displacement + material fields,
     priced at the topology level the allocation's placement crosses
     (flat machines: exactly the old single-fabric transfer) *)
  let face = points_per_node ** (2.0 /. 3.0) in
  let halo_bytes = 6.0 *. face *. 8.0 *. 4.0 in
  let halo_t =
    Hwsim.Topology.gang_transfer_time machine.Hwsim.Node.topology ~nodes
      ~placement ~bytes:halo_bytes
  in
  let serial_s =
    (split *. point_t) +. ((1.0 -. split) *. cpu_point_t) +. halo_t
  in
  (* the 2-deep dependent shell on all 6 faces of the per-node block *)
  let bf = Float.min 0.5 (12.0 *. face /. points_per_node) in
  let sched = Hwsim.Sched.create ?overlap ?trace () in
  let _interior =
    Hwsim.Split.co_work sched ~gpu_stream:"gpu" ~cpu_stream:"cpu"
      ~phase:"interior" ~gpu_s:(point_t *. (1.0 -. bf))
      ~cpu_s:(cpu_point_t *. (1.0 -. bf)) split
  in
  let halo =
    Hwsim.Sched.work sched
      ~stream:(match comm with Hwsim.Split.Dedicated -> "nic" | Inline -> "gpu")
      ~device:(Hwsim.Node.fabric machine).Hwsim.Link.name ~phase:"halo" halo_t
  in
  let _boundary =
    Hwsim.Split.co_work sched ~gpu_stream:"gpu" ~cpu_stream:"cpu"
      ~deps:[ halo ] ~phase:"boundary" ~gpu_s:(point_t *. bf)
      ~cpu_s:(cpu_point_t *. bf) split
  in
  let overlapped_s = Hwsim.Sched.run sched in
  let step_s = if Hwsim.Sched.overlap sched then overlapped_s else serial_s in
  {
    point_s = point_t;
    halo_s = halo_t;
    boundary_frac = bf;
    serial_s;
    overlapped_s;
    step_s;
    dag = Hwsim.Sched.dag sched;
  }

(** The production Hayward run (Sec 4.9): 26 billion grid points, ~10
    hours on Sierra with 256 nodes, "almost the same time as required on
    Cori-II". Wall-clock hours of the campaign on [nodes] nodes of a
    machine, including a surface-to-volume halo exchange per step
    (overlapped with interior compute unless [ICOE_OVERLAP=0]). *)
let production_run_hours ?overlap (machine : Hwsim.Node.machine) ~nodes
    ~grid_points ~steps =
  let m = production_step_model ?overlap machine ~nodes ~grid_points in
  float_of_int steps *. m.step_s /. 3600.0

(** Nodes of [machine] needed to finish the same campaign in [hours]. *)
let nodes_for_deadline (machine : Hwsim.Node.machine) ~grid_points ~steps
    ~hours =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if production_run_hours machine ~nodes:mid ~grid_points ~steps <= hours
      then search lo mid
      else search (mid + 1) hi
  in
  search 1 machine.Hwsim.Node.nodes
