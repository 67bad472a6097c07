(** The Fig 3 scaling study: LBANN-style training with each *sample*
    partitioned across multiple GPUs, on top of data parallelism, up to
    2048 GPUs. Constants calibrated to the paper's strong-scaling points
    (near-perfect 2->4, 2.8x at 8, 3.4x at 16 GPUs per sample). *)

val model_memory_gb : float
(** The semantic-segmentation model exceeds one V100's 16 GB. *)

val min_gpus_per_sample : int
(** The resulting >= 2 GPUs/sample constraint. *)

val strong_scaling_speedup : int -> float
(** Speedup of g GPUs per sample over the 2-GPU baseline (the paper's
    dotted lines). *)

val weak_scaling_throughput : total_gpus:int -> g:int -> float
(** Samples/s with [total_gpus] split into groups of [g] (the solid
    lines). *)

val weak_scaling_efficiency : g:int -> total0:int -> total1:int -> float
(** Fraction of ideal when growing from [total0] to [total1] GPUs. *)
