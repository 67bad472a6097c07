(** Host-device and network links: latency + bandwidth transfer model.

    The VBL GPUDirect study (Sec 4.11) is a crossover property of this
    model: GPUDirect has lower setup latency but lower sustained bandwidth
    than a pipelined cudaMemcpy over NVLink. *)

type t = {
  name : string;
  latency_s : float;
  bw_gbs : float;  (** sustained unidirectional bandwidth, GB/s *)
}

val pp : Format.formatter -> t -> unit

val make : name:string -> latency_s:float -> bw_gbs:float -> t
(** Validating constructor: raises [Invalid_argument] on a negative or
    non-finite latency, or a non-positive or non-finite bandwidth — a
    miswritten machine model fails loudly at construction instead of
    pricing transfers in negative seconds. *)

val transfer_time : t -> bytes:float -> float
(** Time to move [bytes] across the link (latency + bytes/bandwidth).
    An empty transfer costs 0: no message is sent, so no latency is
    paid. *)

val pcie3 : t

val nvlink2 : t
(** Witherspoon P9 <-> V100 host link. *)

val cuda_memcpy : t
(** Pipelined cudaMemcpy over NVLink2 — full bandwidth after ramp-up. *)

val gpudirect : t
(** RDMA-style path: very low setup cost, lower streaming rate. *)

val unified_memory_transfer : link:t -> bytes:float -> float
(** CUDA Unified Memory migrates 64 KiB pages; a transfer moves whole
    pages, each paying a fault-service latency plus its wire time. The
    per-page fault cost replaces the link setup latency (no
    double-charge on the rounded-up tail page); zero bytes cost 0. *)

val ib_edr : t
val ib_dual_edr : t
(** Sierra's dual-rail EDR fabric. *)

val nvme : t
(** Node-local burst tier (HavoqGT out-of-core runs). *)

(** {1 Exascale-generation links} *)

val slingshot_4plane : t
(** Frontier node injection: 4 Slingshot-11 NICs aggregated. *)

val slingshot_optical : t
(** Slingshot global optical links between dragonfly groups. *)

val ib_ndr : t
(** InfiniBand NDR, the Grace-Hopper generation fabric. *)

val nvlink_c2c : t
(** Grace CPU <-> Hopper GPU coherent host link. *)

val infinity_fabric : t
(** Trento CPU <-> MI250X host link on Frontier. *)
