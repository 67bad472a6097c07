(** VBL beam state: an n x n complex transverse electric-field slice on a
    square aperture, stored interleaved (re, im). *)

type t = {
  n : int;  (** grid points per side (power of two for the FFT) *)
  width : float;  (** physical aperture width, metres *)
  wavelength : float;
  field : float array;  (** 2 n^2 interleaved complex values *)
}

let create ~n ~width () =
  if not (Fftlib.Fft.is_pow2 n) then
    invalid_arg (Printf.sprintf "Beam.create: n = %d is not a power of 2" n);
  { n; width; wavelength = 1.053e-6; field = Array.make (2 * n * n) 0.0 }

let dx t = t.width /. float_of_int t.n

(** Physical (x, y) of grid point (i, j), centred on the aperture. *)
let coords t i j =
  let d = dx t in
  ( (float_of_int i -. (float_of_int t.n /. 2.0)) *. d,
    (float_of_int j -. (float_of_int t.n /. 2.0)) *. d )

let set_field t f =
  for j = 0 to t.n - 1 do
    for i = 0 to t.n - 1 do
      let x, y = coords t i j in
      let re, im = f ~x ~y in
      t.field.(2 * ((j * t.n) + i)) <- re;
      t.field.((2 * ((j * t.n) + i)) + 1) <- im
    done
  done

(** Flat-top beam with soft (super-Gaussian) edges filling 0.7 of the
    aperture. *)
let flat_top t =
  let half = 0.7 *. t.width /. 2.0 in
  set_field t (fun ~x ~y ->
      let r = max (Float.abs x) (Float.abs y) /. half in
      (exp (-.(r ** 12.0)), 0.0))

(** Gaussian beam with 1/e^2 intensity radius [w0]. *)
let gaussian ~w0 t =
  set_field t (fun ~x ~y ->
      (exp (-.((x *. x) +. (y *. y)) /. (w0 *. w0)), 0.0))

(** Fluence (intensity) map |E|^2, row-major n x n. *)
let fluence t =
  Array.init (t.n * t.n) (fun k ->
      (t.field.(2 * k) ** 2.0) +. (t.field.((2 * k) + 1) ** 2.0))

let total_power t = Icoe_util.Stats.sum (fluence t)

(** Fluence modulation contrast over the central [frac] of the aperture:
    (max - min) / mean. The Fig 9 ripple metric. *)
let center_contrast ?(frac = 0.4) t =
  let f = fluence t in
  (* round (don't truncate) the window edge, and mirror it for the upper
     edge, so [lo, hi) is symmetric about the grid centre: the ripple
     metric of a mirror-symmetric fluence map must not depend on which
     side of the aperture a feature sits *)
  let lo = int_of_float (Float.round (float_of_int t.n *. (0.5 -. (frac /. 2.0)))) in
  let hi = t.n - lo in
  let vals = ref [] in
  for j = lo to hi - 1 do
    for i = lo to hi - 1 do
      vals := f.((j * t.n) + i) :: !vals
    done
  done;
  let a = Array.of_list !vals in
  let mn, mx = Icoe_util.Stats.min_max a in
  let mean = Icoe_util.Stats.mean a in
  if mean <= 0.0 then 0.0 else (mx -. mn) /. mean
