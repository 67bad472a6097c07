(** The VBL split-step algorithm (Sec 4.11): each z-step applies the
    Fresnel diffraction operator in Fourier space (two FFTs + a quadratic
    spectral phase) and pointwise real-space operators (saturated
    amplifier gain, phase screens). The FFT part is the cuFFT call; the
    pointwise part is the RAJA triply-nested loop of the paper. *)

val defect_screen : defect_size:float -> depth:float -> Beam.t -> unit
(** Two localized Gaussian phase bumps (the Fig 9 "150 micron phase
    defects"), in the lower-left quadrant. *)

val amplifier_step : Beam.t -> g0:float -> fsat:float -> dz:float -> unit
(** Saturated-gain slab: field gain g0 / (1 + F/Fsat) per metre. *)

val run : ?gain:float * float -> Beam.t -> distance:float -> steps:int -> unit
(** Propagate [distance] metres in [steps] split steps; [gain] is
    (g0, fsat) for an amplifying medium. *)

val step_time :
  n:int -> device:Hwsim.Device.t -> transpose_variant:[ `Naive | `Tiled ] ->
  float
(** Simulated seconds per split step; the transpose variant is the
    Sec 4.11 RAJA-vs-CUDA lever. *)
