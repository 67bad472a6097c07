(** Device descriptions for the machines the paper measures on.

    A device is priced with a roofline model: double-precision peak flops
    and a sustainable memory bandwidth. GPUs additionally pay a per-kernel
    launch overhead; CPUs a (much smaller) parallel-region entry cost.
    All figures are published per-chip numbers. *)

type kind = Cpu | Gpu

type t = {
  name : string;
  kind : kind;
  peak_gflops : float;  (** double precision, whole chip *)
  mem_bw_gbs : float;  (** STREAM-like sustainable bandwidth, GB/s *)
  mem_gb : float;  (** directly attached memory capacity *)
  lanes : int;  (** hardware parallel lanes: cores or SMs *)
  launch_overhead_s : float;  (** per-kernel / parallel-region entry cost *)
  cache_mb : float;  (** last-level (CPU) or L2+texture (GPU) cache *)
}

val pp : Format.formatter -> t -> unit

(** {1 CPUs} *)

val power8 : t
(** POWER8, the EA Minsky host CPU. *)

val power9 : t
(** POWER9, the Sierra Witherspoon socket. *)

val knl : t
(** Knights Landing — Cori-II at NERSC, SW4's comparison machine. *)

val bgq : t
(** Blue Gene/Q node chip (historical Table 2 machines). *)

val trento : t
(** AMD EPYC 7A53 "Trento", the Frontier host socket. *)

val grace : t
(** NVIDIA Grace, the Arm host of the Grace-Hopper superchip. *)

(** {1 GPUs} *)

val p100 : t
(** Pascal, on the EA Minsky nodes. *)

val v100 : t
(** Volta, on Sierra — including the enlarged caches that made Opt's
    texture-memory trick moot. *)

val mi250x : t
(** AMD MI250X, the Frontier GPU module (two GCDs). *)

val h100 : t
(** NVIDIA H100, the Grace-Hopper superchip GPU. *)
