(** Nest/uncore memory-bandwidth counters (Sec 4.10.6).

    The Tools activity's deliverable was making the P9 "nest" counters —
    off-core memory-traffic counters not bound to any core — readable by
    regular users, because "many HPC applications are memory-bandwidth
    bound [and] understanding the bandwidth that an application uses is
    crucial to performance tuning". This module is that facility for the
    simulated machine: it samples a clock + traffic source and reports
    achieved bandwidth against the device's sustainable peak, exactly what
    Performance Co-Pilot exposed on the real system. *)

type sample = { t : float; bytes : float }

type t = {
  device : Device.t;
  mutable samples : sample list;  (** newest first *)
}

let create device = { device; samples = [] }

(** Record the (cumulative) traffic counter at simulated time [t]. *)
let sample t ~time ~bytes =
  (match t.samples with
  | { t = t0; bytes = b0 } :: _ ->
      (* counters are monotone *)
      if not (time >= t0 && bytes >= b0) then
        invalid_arg
          (Printf.sprintf
             "Counters.sample: (time %g, bytes %g) precedes the last sample (%g, %g)"
             time bytes t0 b0)
  | [] -> ());
  t.samples <- { t = time; bytes } :: t.samples

(** Achieved bandwidth (GB/s) over the whole sampled window. *)
let achieved_gbs t =
  match (t.samples, List.rev t.samples) with
  | last :: _, first :: _ when last.t > first.t ->
      (last.bytes -. first.bytes) /. (last.t -. first.t) /. 1e9
  | _ -> 0.0

(** Fraction of the device's sustainable bandwidth in use. *)
let utilization t = achieved_gbs t /. t.device.Device.mem_bw_gbs

(** Is the sampled workload memory-bandwidth bound? (>60% of sustainable
    bandwidth is the usual rule of thumb the tuning guides use) *)
let bandwidth_bound t = utilization t > 0.6

(** Per-interval bandwidth series, oldest first: (t_mid, GB/s).

    [sample] accepts equal timestamps (the monotonicity guard is [>=]),
    so zero-width intervals are merged before dividing: consecutive
    samples at the same instant collapse to the newest one — the counter
    is cumulative, so no traffic is lost — and the series never contains
    nan/inf entries from a 0/0 or x/0 division. *)
let series t =
  let rec dedup = function
    | a :: b :: rest when a.t = b.t -> dedup (a :: rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  let rec pair = function
    | a :: (b :: _ as rest) ->
        ((a.t +. b.t) /. 2.0, (a.bytes -. b.bytes) /. (a.t -. b.t) /. 1e9)
        :: pair rest
    | _ -> []
  in
  List.rev (pair (dedup t.samples))
