(** Host-device and network links: latency + bandwidth transfer model.

    The VBL GPUDirect study (Sec 4.11) is a pure crossover property of this
    model: GPUDirect has lower setup latency but lower sustained bandwidth
    than a pipelined cudaMemcpy over NVLink, so cudaMemcpy overtakes it at a
    few KB (host-to-device) and ~hundreds of bytes (device-to-host). *)

type t = {
  name : string;
  latency_s : float;
  bw_gbs : float;  (** sustained unidirectional bandwidth, GB/s *)
}

let pp ppf l = Fmt.pf ppf "%s(%.1fus, %.0f GB/s)" l.name (l.latency_s *. 1e6) l.bw_gbs

(** Validating constructor: a link with negative latency or non-positive
    bandwidth would price transfers in negative seconds, which then
    propagates silently through every cost model above. A miswritten
    machine model should fail at construction, not in a report. *)
let make ~name ~latency_s ~bw_gbs =
  if not (Float.is_finite latency_s) || latency_s < 0.0 then
    invalid_arg
      (Fmt.str "Link.make %s: latency %.17g s (must be finite and >= 0)" name
         latency_s);
  if not (Float.is_finite bw_gbs) || bw_gbs <= 0.0 then
    invalid_arg
      (Fmt.str "Link.make %s: bandwidth %.17g GB/s (must be finite and > 0)"
         name bw_gbs);
  { name; latency_s; bw_gbs }

(** Time to move [bytes] across the link; an empty transfer costs
    nothing (no message, no latency). *)
let transfer_time l ~bytes =
  if not (bytes >= 0.0) then
    invalid_arg
      (Printf.sprintf "Link.transfer_time %s: bytes = %g is not >= 0" l.name bytes);
  if bytes = 0.0 then 0.0
  else l.latency_s +. (bytes /. (l.bw_gbs *. 1e9))

(** PCIe gen3 x16, the pre-EA clusters' host link. *)
let pcie3 = { name = "PCIe3"; latency_s = 10e-6; bw_gbs = 12.0 }

(** NVLink 2.0 (Witherspoon, P9<->V100): 3 bricks. *)
let nvlink2 = { name = "NVLink2"; latency_s = 7e-6; bw_gbs = 75.0 }

(** Pipelined cudaMemcpy over NVLink2: full bandwidth after ramp-up. *)
let cuda_memcpy = { name = "cudaMemcpy"; latency_s = 7e-6; bw_gbs = 75.0 }

(** GPUDirect RDMA-style path: very low setup cost, lower streaming rate. *)
let gpudirect = { name = "GPUDirect"; latency_s = 1.2e-6; bw_gbs = 8.0 }

(** CUDA Unified Memory migrates in 64 KiB blocks: a transfer of n bytes
    moves ceil(n / 64K) pages, each paying a page-fault service latency
    plus its wire time. The fault-service cost replaces the link setup
    latency (each page fault is its own round trip), so the rounded-up
    tail page is not additionally charged [latency_s]; zero bytes move
    zero pages and cost nothing. *)
let unified_memory_transfer ~link ~bytes =
  if not (bytes >= 0.0) then
    invalid_arg
      (Printf.sprintf "Link.unified_memory_transfer: bytes = %g is not >= 0" bytes);
  let page = 65536.0 in
  let pages = Float.ceil (bytes /. page) in
  let fault_cost = 3e-6 in
  if pages = 0.0 then 0.0
  else (pages *. fault_cost) +. (pages *. page /. (link.bw_gbs *. 1e9))

(** EDR InfiniBand node interconnect (per-port). *)
let ib_edr = { name = "IB-EDR"; latency_s = 1.0e-6; bw_gbs = 12.5 }

(** Sierra dual-rail EDR. *)
let ib_dual_edr = { name = "IB-2xEDR"; latency_s = 1.0e-6; bw_gbs = 25.0 }

(** NVMe burst tier on Sierra nodes (HavoqGT out-of-core runs). *)
let nvme = { name = "NVMe"; latency_s = 90e-6; bw_gbs = 5.5 }

(* --- exascale-generation links (Bauman et al. 2023,
   Elwasif et al. 2022). Built through [make] so a typo in a machine
   model fails at module init, not in a report. --- *)

(** Frontier node injection: 4 Slingshot-11 NICs, one per MI250X (the
    "4-plane" dragonfly), 25 GB/s each, aggregated. *)
let slingshot_4plane = make ~name:"Slingshot11x4" ~latency_s:1.8e-6 ~bw_gbs:100.0

(** Slingshot global optical links between dragonfly groups (per-node
    share of the group's global ports; tapered). *)
let slingshot_optical = make ~name:"Slingshot11-opt" ~latency_s:2.2e-6 ~bw_gbs:25.0

(** InfiniBand NDR (400 Gb/s ports) on the Grace-Hopper generation. *)
let ib_ndr = make ~name:"IB-NDR" ~latency_s:1.3e-6 ~bw_gbs:50.0

(** NVLink-C2C: Grace CPU <-> Hopper GPU coherent host link. *)
let nvlink_c2c = make ~name:"NVLink-C2C" ~latency_s:0.9e-6 ~bw_gbs:450.0

(** Infinity Fabric: Trento CPU <-> MI250X host link on Frontier. *)
let infinity_fabric = make ~name:"InfinityFabric" ~latency_s:1.5e-6 ~bw_gbs:36.0
