(** VBL beam state: an n x n complex transverse electric-field slice on a
    square aperture, stored interleaved (re, im). *)

type t = {
  n : int;  (** grid points per side (a power of two, for the FFT) *)
  width : float;  (** physical aperture width, metres *)
  wavelength : float;  (** 1053 nm, the NIF 1-omega line *)
  field : float array;  (** 2 n^2 interleaved complex values *)
}

val create : n:int -> width:float -> unit -> t

val coords : t -> int -> int -> float * float
(** Physical (x, y) of a grid point, centred on the aperture. *)

val set_field : t -> (x:float -> y:float -> float * float) -> unit

val flat_top : t -> unit
(** Super-Gaussian flat-top filling 0.7 of the aperture. *)

val gaussian : w0:float -> t -> unit

val fluence : t -> float array
(** |E|^2 map, row-major n x n. *)

val total_power : t -> float

val center_contrast : t -> float
(** Fluence modulation (max - min)/mean over the central 40% of the
    aperture — the Fig 9 ripple metric. *)
