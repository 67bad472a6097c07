(** Complex radix-2 FFT — the cuFFT analog for VBL's split-step method.
    Data is interleaved (re, im) in a flat float array of length 2n. *)

val is_pow2 : int -> bool

val transform : ?inverse:bool -> float array -> unit
(** In-place FFT of length n (power of two); [inverse] includes the 1/n
    normalization. *)

val dft : ?inverse:bool -> float array -> float array
(** Out-of-place convenience: a fresh transformed copy. *)

val transpose_naive : n:int -> float array -> float array -> unit
(** Strided complex matrix transpose (the slow RAJA-port shape of
    Sec 4.11). *)

val transpose_tiled : ?tile:int -> n:int -> float array -> float array -> unit
(** Tiled transpose (the hand-CUDA rewrite that won). Identical results. *)

val transform_2d : ?inverse:bool -> n:int -> float array -> unit
(** 2D FFT of an n x n complex field via row FFTs + tiled transposes. *)

val fft_work : int -> Hwsim.Kernel.t
(** Work volume of one n-point 1D FFT (5 n log2 n flops). *)

val transpose_time : n:int -> device:Hwsim.Device.t -> [ `Naive | `Tiled ] -> float
(** Simulated transpose time: same bytes, very different achieved
    bandwidth. *)
