(** Device descriptions for the machines the paper measures on.

    A device is priced with a roofline model: double-precision peak flops
    and a sustainable memory bandwidth. GPUs additionally pay a per-kernel
    launch overhead; CPUs pay a (much smaller) parallel-region entry cost.
    Capacities matter for the Cretin memory-constraint study and the
    HavoqGT NVMe runs. All figures are published per-chip numbers. *)

type kind = Cpu | Gpu

type t = {
  name : string;
  kind : kind;
  peak_gflops : float;  (** double precision, whole chip *)
  mem_bw_gbs : float;  (** STREAM-like sustainable bandwidth, GB/s *)
  mem_gb : float;  (** directly attached memory capacity *)
  lanes : int;  (** hardware parallel lanes: cores or SMs *)
  launch_overhead_s : float;  (** per-kernel/parallel-region entry cost *)
  cache_mb : float;  (** last-level (CPU) or L2+texture (GPU) cache *)
}

let pp ppf d =
  Fmt.pf ppf "%s(%s, %.0f GF/s, %.0f GB/s, %.0f GB)" d.name
    (match d.kind with Cpu -> "cpu" | Gpu -> "gpu")
    d.peak_gflops d.mem_bw_gbs d.mem_gb

(* --- CPUs --- *)

(** POWER8, 10 cores @ ~3.5 GHz on the EA Minsky nodes. *)
let power8 =
  {
    name = "POWER8";
    kind = Cpu;
    peak_gflops = 280.0;
    mem_bw_gbs = 85.0;
    mem_gb = 128.0;
    lanes = 10;
    launch_overhead_s = 2e-6;
    cache_mb = 80.0;
  }

(** POWER9, 22 cores, Witherspoon (Sierra) socket. *)
let power9 =
  {
    name = "POWER9";
    kind = Cpu;
    peak_gflops = 560.0;
    mem_bw_gbs = 120.0;
    mem_gb = 128.0;
    lanes = 22;
    launch_overhead_s = 2e-6;
    cache_mb = 110.0;
  }

(** Knights Landing socket, Cori-II at NERSC (SW4 comparison machine). *)
let knl =
  {
    name = "KNL";
    kind = Cpu;
    peak_gflops = 2662.0;
    mem_bw_gbs = 400.0;
    (* MCDRAM *)
    mem_gb = 96.0;
    lanes = 68;
    launch_overhead_s = 4e-6;
    cache_mb = 34.0;
  }

(** Blue Gene/Q node chip (historical graph numbers in Table 2). *)
let bgq =
  {
    name = "BG/Q";
    kind = Cpu;
    peak_gflops = 204.8;
    mem_bw_gbs = 28.0;
    mem_gb = 16.0;
    lanes = 16;
    launch_overhead_s = 2e-6;
    cache_mb = 32.0;
  }

(** AMD EPYC 7A53 "Trento", the Frontier host socket (64 Zen3 cores,
    optimized I/O die for Infinity Fabric coherence). *)
let trento =
  {
    name = "Trento";
    kind = Cpu;
    peak_gflops = 2000.0;
    mem_bw_gbs = 205.0;
    mem_gb = 512.0;
    lanes = 64;
    launch_overhead_s = 2e-6;
    cache_mb = 256.0;
  }

(** NVIDIA Grace, the Arm host of the Grace-Hopper superchip (72
    Neoverse-V2 cores on LPDDR5X). *)
let grace =
  {
    name = "Grace";
    kind = Cpu;
    peak_gflops = 3450.0;
    mem_bw_gbs = 500.0;
    mem_gb = 480.0;
    lanes = 72;
    launch_overhead_s = 2e-6;
    cache_mb = 117.0;
  }

(* --- GPUs --- *)

(** Pascal P100 (SXM2) on the EA Minsky nodes. *)
let p100 =
  {
    name = "P100";
    kind = Gpu;
    peak_gflops = 5300.0;
    mem_bw_gbs = 720.0;
    mem_gb = 16.0;
    lanes = 56;
    launch_overhead_s = 8e-6;
    cache_mb = 4.0;
  }

(** Volta V100 (SXM2) on Sierra Witherspoon nodes. Volta's unified and much
    larger L1/L2 caching is what made Opt's texture-memory trick moot. *)
let v100 =
  {
    name = "V100";
    kind = Gpu;
    peak_gflops = 7800.0;
    mem_bw_gbs = 900.0;
    mem_gb = 16.0;
    lanes = 80;
    launch_overhead_s = 7e-6;
    cache_mb = 16.0;
  }

(** AMD MI250X on Frontier (Bauman et al. 2023): two GCDs per module,
    47.9 TF FP64 vector, 3.2 TB/s aggregate HBM2e. *)
let mi250x =
  {
    name = "MI250X";
    kind = Gpu;
    peak_gflops = 47900.0;
    mem_bw_gbs = 3276.0;
    mem_gb = 128.0;
    lanes = 220;
    launch_overhead_s = 4e-6;
    cache_mb = 16.0;
  }

(** NVIDIA H100 (SXM) of the Grace-Hopper superchip (Elwasif et al.
    2022 Arm+GPU testbed lineage): 34 TF FP64 vector, HBM3. *)
let h100 =
  {
    name = "H100";
    kind = Gpu;
    peak_gflops = 34000.0;
    mem_bw_gbs = 3350.0;
    mem_gb = 96.0;
    lanes = 132;
    launch_overhead_s = 5e-6;
    cache_mb = 50.0;
  }
