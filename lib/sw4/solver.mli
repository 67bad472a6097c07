(** Explicit leapfrog time stepping with supergrid-style damping layers
    near the boundaries (SW4's artificial-boundary treatment), plus
    receiver (seismogram) recording. *)

type receiver = {
  ri : int;
  rj : int;
  mutable trace : (float * float * float) list;  (** (t, ux, uy), newest first *)
}

val receiver : i:int -> j:int -> receiver

type t = {
  grid : Grid.t;
  dt : float;
  mutable time : float;
  mutable steps : int;
  ux : Icoe_util.Fbuf.t;
  uy : Icoe_util.Fbuf.t;
  ux_prev : Icoe_util.Fbuf.t;
  uy_prev : Icoe_util.Fbuf.t;
  ax : Icoe_util.Fbuf.t;
  ay : Icoe_util.Fbuf.t;
  scratch : Elastic.scratch;
  damping : Icoe_util.Fbuf.t;  (** supergrid taper, 1 in the interior *)
  sources : Source.t list;
  receivers : receiver list;
}

val create :
  ?cfl:float -> ?damping_width:int -> ?damping_strength:float ->
  ?sources:Source.t list -> ?receivers:receiver list -> Grid.t -> t

val step : t -> unit
val run : t -> steps:int -> unit

type snapshot
(** Full solver state: wave fields, leapfrog history, accelerations,
    clock and recorded seismograms. *)

val snapshot : t -> snapshot
(** Deep copy of the mutable state, for checkpoint/restart
    ({!Icoe_fault.Checkpoint}). *)

val restore : t -> snapshot -> unit
(** Restore a snapshot taken from the same solver. Stepping after a
    restore replays bit-identically to the original trajectory. *)

val energy_proxy : t -> float
(** Kinetic energy; bounded for a stable damped scheme. *)
