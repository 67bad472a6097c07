(** minikin: the Cretin mini-app. Batches of zones, each with its own
    plasma conditions, all solved for steady-state populations.

    The Sec 4.3 performance story lives here:

    - CPU threading is *per zone*: every thread needs a full zone workspace
      (rate matrix + factors), so large atomic models exhaust node memory
      and idle cores — "memory constraints require idling 60% of CPU
      cores" for the largest model;
    - the GPU port threads *within* a zone (over transitions/matrix rows),
      so only one zone's workspace is resident and the whole chip stays
      busy regardless of model size. *)

type zone = { cond : Ratematrix.conditions; mutable populations : float array }

type t = { model : Atomic.t; zones : zone array }

(** Zones along a temperature/density gradient (a 1D hohlraum-wall-like
    profile). *)
let create ?(nzones = 64) ?(te0 = 2.0) ?(te1 = 40.0) ?(ne = 1.0e21) model =
  let zones =
    Array.init nzones (fun z ->
        let f = float_of_int z /. float_of_int (max 1 (nzones - 1)) in
        {
          cond =
            {
              Ratematrix.te = te0 +. (f *. (te1 -. te0));
              ne = ne *. (1.0 +. f);
              radiation = 0.1;
            };
          populations = [||];
        })
  in
  { model; zones }

(** Solve every zone (direct solver); populations are stored per zone. *)
let solve_all t =
  Array.iter
    (fun z -> z.populations <- Ratematrix.solve_direct t.model z.cond)
    t.zones

(** Mean excitation (population-weighted mean level index) per zone —
    a physics observable that must increase with temperature. *)
let mean_excitation z =
  let acc = ref 0.0 in
  Array.iteri (fun k p -> acc := !acc +. (float_of_int k *. p)) z.populations;
  !acc

(* --- the Sec 4.3 performance model --- *)

(** Zone-processing work: rate evaluation ~ exp-heavy per transition, plus
    an O(n^3) dense solve. *)
let zone_work (model : Atomic.t) =
  let n = float_of_int (Atomic.n_levels model) in
  let ntr = float_of_int (List.length model.Atomic.transitions) in
  let rate_flops = ntr *. 120.0 in
  let solve_flops = 2.0 /. 3.0 *. (n ** 3.0) in
  Hwsim.Kernel.make ~name:"zone" ~flops:(rate_flops +. solve_flops)
    ~bytes:(Atomic.zone_bytes model) ()

(** CPU node throughput, zones/second: threads are limited by both core
    count and per-zone workspace memory. Returns (zones_per_s,
    usable_cores, total_cores). *)
let cpu_node_rate ?(node = Hwsim.Node.witherspoon) (model : Atomic.t) =
  let cpu = node.Hwsim.Node.cpu in
  let cores = node.Hwsim.Node.cpu_sockets * cpu.Hwsim.Device.lanes in
  let mem_bytes = float_of_int node.Hwsim.Node.cpu_sockets *. cpu.Hwsim.Device.mem_gb *. 1e9 in
  (* leave half of memory to the host application (HYDRA) *)
  let fit = int_of_float (mem_bytes /. 2.0 /. Atomic.zone_bytes model) in
  let usable = max 1 (min cores fit) in
  let eff = Hwsim.Roofline.eff ~compute:0.25 ~bandwidth:0.6 () in
  (* one zone runs on one core *)
  let t_zone = Hwsim.Roofline.time ~eff ~lanes_used:1 cpu (zone_work model) in
  (float_of_int usable /. t_zone, usable, cores)

(** GPU node throughput, zones/second: threads within a zone, one zone's
    workspace resident at a time; all four GPUs work. The compute
    efficiency is calibrated to the paper's 5.75x node speedup for the
    second-largest model — batched small-LU and rate kernels reach only a
    few percent of DP peak, which is why the ratio is modest. *)
let gpu_node_rate ?(node = Hwsim.Node.witherspoon) (model : Atomic.t) =
  match node.Hwsim.Node.gpu with
  | None -> 0.0
  | Some gpu ->
      let eff = Hwsim.Roofline.eff ~compute:0.052 ~bandwidth:0.25 () in
      let t_zone = Hwsim.Roofline.time ~eff gpu (zone_work model) in
      float_of_int node.Hwsim.Node.gpus /. t_zone

(** The Sec 4.3 comparison for a model size: returns
    (gpu_rate /. cpu_rate, fraction of CPU cores idled by memory). *)
let node_speedup (model : Atomic.t) =
  let cpu_rate, usable, cores = cpu_node_rate model in
  let gpu_rate = gpu_node_rate model in
  (gpu_rate /. cpu_rate, 1.0 -. (float_of_int usable /. float_of_int cores))
