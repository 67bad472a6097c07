(** Seismic sources: point forces with standard source-time functions. *)

(** Ricker wavelet with peak frequency [f0], centred at [t0]. *)
let ricker ~f0 ~t0 t =
  let a = Float.pi *. f0 *. (t -. t0) in
  (1.0 -. (2.0 *. a *. a)) *. exp (-.(a *. a))

type t = {
  i : int;
  j : int;
  fx : float;  (** force amplitude, x component *)
  fy : float;
  stf : float -> float;  (** source-time function *)
}

let point_force ~i ~j ~fx ~fy ~stf = { i; j; fx; fy; stf }

(** Add the source contribution at time [t] into the acceleration fields
    (force divided by the local density). *)
let inject (g : Grid.t) src ~t ~ax ~ay =
  let module Fbuf = Icoe_util.Fbuf in
  let k = Grid.idx g src.i src.j in
  let amp = src.stf t /. g.Grid.rho.(k) in
  Fbuf.set ax k (Fbuf.get ax k +. (src.fx *. amp));
  Fbuf.set ay k (Fbuf.get ay k +. (src.fy *. amp))
