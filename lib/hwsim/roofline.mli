(** Roofline pricing of kernels on devices.

    time = launches * launch_overhead
         + max (flops / (eff.compute * peak), bytes / (eff.bandwidth * bw))

    Efficiency fractions express how well a code variant exploits the
    device; they are the calibration surface of the reproduction, set per
    code variant and never per experiment. *)

type efficiency = {
  compute : float;  (** fraction of peak flops achievable, in (0, 1] *)
  bandwidth : float;  (** fraction of peak bandwidth achievable, in (0, 1] *)
}

val eff : ?compute:float -> ?bandwidth:float -> unit -> efficiency
(** Build an efficiency profile (defaults 1.0). Raises [Invalid_argument]
    naming the value when either fraction is outside (0, 1]. *)

val default_eff : efficiency
(** compute 0.6, bandwidth 0.75 — a competent hand-tuned kernel. *)

type bound = Compute_bound | Bandwidth_bound

val time : ?eff:efficiency -> ?lanes_used:int -> Device.t -> Kernel.t -> float
(** Execution seconds of a kernel on a device. [lanes_used] (default all)
    idles part of the chip, scaling both roofs — how the Cretin
    memory-constrained core-idling case is modelled. Raises
    [Invalid_argument] unless [0 < lanes_used <= d.lanes]. *)

val time_and_bound :
  ?eff:efficiency -> ?lanes_used:int -> Device.t -> Kernel.t -> float * bound
(** [time] plus which roof bound the kernel under the same scaling; the
    tracer records this per span. *)
