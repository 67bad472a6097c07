(** The Fig 3 scaling study: LBANN-style training with each *sample*
    partitioned across multiple GPUs (model/spatial parallelism), on top
    of conventional data parallelism, up to 2048 GPUs.

    Per mini-batch time for a group of [gpus_per_sample] = g GPUs:

        t(g) = compute/g + halo(g) + allreduce

    halo grows with g (more partition boundaries exchange activations over
    NVLink); the data-parallel allreduce grows logarithmically with the
    number of groups. Constants calibrated to the paper's strong-scaling
    points: near-perfect 2->4, 2.8x at 8, 3.4x at 16 GPUs per sample. *)

(** The semantic-segmentation model is bigger than one V100's 16 GB: at
    least two GPUs per sample are required (the paper's constraint). *)
let model_memory_gb = 24.0

let min_gpus_per_sample =
  int_of_float
    (Float.ceil (model_memory_gb /. Hwsim.Device.v100.Hwsim.Device.mem_gb))

(* calibrated constants (seconds per mini-batch at reference size) *)
let compute_full = 1.0
let halo_log = 0.010
let halo_linear = 0.003

(** Per-batch time for one sample group of [g] GPUs. *)
let group_time g =
  if not (g >= 1) then
    invalid_arg (Printf.sprintf "Lbann.group_time: g = %d GPUs per sample is not >= 1" g);
  let gf = float_of_int g in
  (compute_full /. gf)
  +. (halo_log *. Float.log2 (max 2.0 gf))
  +. (halo_linear *. gf)

(** Strong-scaling speedup of g GPUs per sample relative to the 2-GPU
    baseline (the paper's dotted lines). *)
let strong_scaling_speedup g = group_time min_gpus_per_sample /. group_time g

(** Weak scaling: total throughput (samples/s) using [total_gpus] with
    [g] GPUs per sample; the data-parallel allreduce across groups adds a
    log term (the solid lines staying nearly flat). *)
let weak_scaling_throughput ~total_gpus ~g =
  if not (total_gpus >= g) then
    invalid_arg
      (Printf.sprintf "Lbann.weak_scaling_throughput: total_gpus = %d < g = %d"
         total_gpus g);
  let groups = total_gpus / g in
  let allreduce =
    0.004 *. Float.log2 (max 2.0 (float_of_int groups))
  in
  float_of_int groups /. (group_time g +. allreduce)

(** Parallel efficiency of weak scaling from [groups0] to [groups1]
    groups (fraction of ideal). *)
let weak_scaling_efficiency ~g ~total0 ~total1 =
  let t0 = weak_scaling_throughput ~total_gpus:total0 ~g in
  let t1 = weak_scaling_throughput ~total_gpus:total1 ~g in
  t1 /. t0 /. (float_of_int total1 /. float_of_int total0)
