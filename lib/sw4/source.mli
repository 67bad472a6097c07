(** Seismic sources: point forces with standard source-time functions. *)

val ricker : f0:float -> t0:float -> float -> float
(** Ricker wavelet with peak frequency [f0], centred at [t0]. *)

type t = {
  i : int;
  j : int;
  fx : float;
  fy : float;
  stf : float -> float;  (** source-time function *)
}

val point_force :
  i:int -> j:int -> fx:float -> fy:float -> stf:(float -> float) -> t

val inject :
  Grid.t -> t -> t:float -> ax:Icoe_util.Fbuf.t -> ay:Icoe_util.Fbuf.t -> unit
(** Add the source contribution at time [t] into the accelerations. *)
