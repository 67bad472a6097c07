(** Roofline pricing of kernels on devices.

    time = launches * launch_overhead
         + max (flops / (eff_compute * peak), bytes / (eff_bandwidth * bw))

    Efficiency fractions express how well a given code variant exploits the
    device (e.g. a shared-memory CUDA stencil reaches a higher compute
    fraction than the naive one; RAJA pays an abstraction penalty). They are
    the calibration surface of the reproduction: set per code-variant, never
    per-experiment. *)

type efficiency = {
  compute : float;  (** fraction of peak flops achievable *)
  bandwidth : float;  (** fraction of peak memory bandwidth achievable *)
}

let eff ?(compute = 1.0) ?(bandwidth = 1.0) () =
  if not (compute > 0.0 && compute <= 1.0) then
    invalid_arg (Printf.sprintf "Roofline.eff: compute = %g outside (0, 1]" compute);
  if not (bandwidth > 0.0 && bandwidth <= 1.0) then
    invalid_arg
      (Printf.sprintf "Roofline.eff: bandwidth = %g outside (0, 1]" bandwidth);
  { compute; bandwidth }

let default_eff = { compute = 0.6; bandwidth = 0.75 }

(** Which roof binds. *)
type bound = Compute_bound | Bandwidth_bound

(** Execution time in seconds of kernel [k] on device [d], together with
    the roof that bound it under the same efficiency/lane scaling.
    [lanes_used] (default: all) idles part of the chip, scaling both
    roofs — this is how the Cretin memory-constrained "60% of CPU cores
    idle" case is modelled. *)
let time_and_bound ?(eff = default_eff) ?lanes_used (d : Device.t)
    (k : Kernel.t) =
  let lane_frac =
    match lanes_used with
    | None -> 1.0
    | Some l ->
        if not (l > 0 && l <= d.Device.lanes) then
          invalid_arg
            (Printf.sprintf "Roofline.time_and_bound: lanes_used = %d outside 1..%d on %s"
               l d.Device.lanes d.Device.name);
        float_of_int l /. float_of_int d.Device.lanes
  in
  let peak = d.Device.peak_gflops *. 1e9 *. eff.compute *. lane_frac in
  let bw = d.Device.mem_bw_gbs *. 1e9 *. eff.bandwidth *. lane_frac in
  let compute_t = k.Kernel.flops /. peak in
  let mem_t = k.Kernel.bytes /. bw in
  ( (float_of_int k.Kernel.launches *. d.Device.launch_overhead_s)
    +. max compute_t mem_t,
    if compute_t >= mem_t then Compute_bound else Bandwidth_bound )

let time ?eff ?lanes_used d k = fst (time_and_bound ?eff ?lanes_used d k)

(* Delegates to [time_and_bound] so the two can never disagree: the
   bound is derived under the same efficiency and lane scaling as the
   priced time (re-deriving the roofs here once ignored [lanes_used]). *)
let binding ?eff ?lanes_used (d : Device.t) (k : Kernel.t) =
  snd (time_and_bound ?eff ?lanes_used d k)
