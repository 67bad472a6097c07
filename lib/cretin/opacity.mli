(** Frequency-dependent opacities from level populations — what the rate
    solve exists to feed into radiation transport (Sec 4.3). Bound-bound
    absorption with Doppler line profiles, corrected for stimulated
    emission. *)

type line = { lower : int; upper : int; center : float; strength : float }

val opacity : Atomic.t -> populations:float array -> te:float -> float -> float
(** Opacity at a photon energy (arbitrary units per unit density). *)

val spectrum :
  ?npts:int -> Atomic.t -> populations:float array -> te:float ->
  (float * float) array
(** (photon energy, opacity) samples spanning the model's lines. *)

val planck_mean :
  Atomic.t -> populations:float array -> te:float -> tr:float -> float
(** Planck-weighted mean opacity at radiation temperature [tr]. *)
