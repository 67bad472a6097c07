(** Particle store in struct-of-arrays layout with a periodic cubic box.

    The paper's ddcMD port "converted the array of structs to a struct of
    arrays" for locality; we keep that layout so per-array streaming costs
    are explicit. Each component lives in a flat float64
    {!Icoe_util.Fbuf} Bigarray: the force loop reads and writes them with
    unchecked single-load access and the GC never scans or moves them.
    Positions are wrapped into [0, box). *)

module Fbuf = Icoe_util.Fbuf

type t = {
  n : int;
  mutable box : float;  (** cubic box edge length *)
  x : Fbuf.t;
  y : Fbuf.t;
  z : Fbuf.t;
  vx : Fbuf.t;
  vy : Fbuf.t;
  vz : Fbuf.t;
  fx : Fbuf.t;
  fy : Fbuf.t;
  fz : Fbuf.t;
  mass : Fbuf.t;
  species : int array;
}

let create ~n ~box =
  if n <= 0 then
    invalid_arg (Fmt.str "Ddcmd.Particles.create: n must be positive, got %d" n);
  if not (box > 0.0 && Float.is_finite box) then
    invalid_arg
      (Fmt.str "Ddcmd.Particles.create: box must be positive and finite, got %g"
         box);
  let mass = Fbuf.create n in
  Fbuf.fill mass 1.0;
  {
    n;
    box;
    x = Fbuf.create n;
    y = Fbuf.create n;
    z = Fbuf.create n;
    vx = Fbuf.create n;
    vy = Fbuf.create n;
    vz = Fbuf.create n;
    fx = Fbuf.create n;
    fy = Fbuf.create n;
    fz = Fbuf.create n;
    mass;
    species = Array.make n 0;
  }

let wrap t v =
  let b = t.box in
  let w = Float.rem v b in
  if w < 0.0 then w +. b else w

let wrap_all t =
  for i = 0 to t.n - 1 do
    Fbuf.set t.x i (wrap t (Fbuf.get t.x i));
    Fbuf.set t.y i (wrap t (Fbuf.get t.y i));
    Fbuf.set t.z i (wrap t (Fbuf.get t.z i))
  done

(** Minimum-image displacement component. *)
let min_image t d =
  let b = t.box in
  if d > b /. 2.0 then d -. b else if d < -.b /. 2.0 then d +. b else d

(** Squared minimum-image distance between particles i and j. *)
let dist2 t i j =
  let dx = min_image t (Fbuf.get t.x i -. Fbuf.get t.x j) in
  let dy = min_image t (Fbuf.get t.y i -. Fbuf.get t.y j) in
  let dz = min_image t (Fbuf.get t.z i -. Fbuf.get t.z j) in
  (dx *. dx) +. (dy *. dy) +. (dz *. dz)

(** Place particles on a cubic lattice (stable non-overlapping start). *)
let lattice_init t =
  let per_side = int_of_float (Float.ceil (float_of_int t.n ** (1.0 /. 3.0))) in
  let spacing = t.box /. float_of_int per_side in
  for i = 0 to t.n - 1 do
    let ix = i mod per_side in
    let iy = i / per_side mod per_side in
    let iz = i / (per_side * per_side) in
    Fbuf.set t.x i ((float_of_int ix +. 0.5) *. spacing);
    Fbuf.set t.y i ((float_of_int iy +. 0.5) *. spacing);
    Fbuf.set t.z i ((float_of_int iz +. 0.5) *. spacing)
  done

(** Maxwell-Boltzmann velocities at temperature [temp] (kB = 1 units),
    with the centre-of-mass drift removed. *)
let thermalize t ~(rng : Icoe_util.Rng.t) ~temp =
  for i = 0 to t.n - 1 do
    let s = sqrt (temp /. Fbuf.get t.mass i) in
    Fbuf.set t.vx i (s *. Icoe_util.Rng.gaussian rng);
    Fbuf.set t.vy i (s *. Icoe_util.Rng.gaussian rng);
    Fbuf.set t.vz i (s *. Icoe_util.Rng.gaussian rng)
  done;
  (* remove COM drift *)
  let mx = ref 0.0 and my = ref 0.0 and mz = ref 0.0 and mt = ref 0.0 in
  for i = 0 to t.n - 1 do
    let m = Fbuf.get t.mass i in
    mx := !mx +. (m *. Fbuf.get t.vx i);
    my := !my +. (m *. Fbuf.get t.vy i);
    mz := !mz +. (m *. Fbuf.get t.vz i);
    mt := !mt +. m
  done;
  for i = 0 to t.n - 1 do
    Fbuf.set t.vx i (Fbuf.get t.vx i -. (!mx /. !mt));
    Fbuf.set t.vy i (Fbuf.get t.vy i -. (!my /. !mt));
    Fbuf.set t.vz i (Fbuf.get t.vz i -. (!mz /. !mt))
  done

let kinetic_energy t =
  let e = ref 0.0 in
  for i = 0 to t.n - 1 do
    e :=
      !e
      +. (0.5 *. Fbuf.get t.mass i
         *. ((Fbuf.get t.vx i ** 2.0) +. (Fbuf.get t.vy i ** 2.0)
            +. (Fbuf.get t.vz i ** 2.0)))
  done;
  !e

(** Instantaneous temperature (kB = 1): 2 KE / (3 N). *)
let temperature t = 2.0 *. kinetic_energy t /. (3.0 *. float_of_int t.n)

let total_momentum t =
  let mx = ref 0.0 and my = ref 0.0 and mz = ref 0.0 in
  for i = 0 to t.n - 1 do
    let m = Fbuf.get t.mass i in
    mx := !mx +. (m *. Fbuf.get t.vx i);
    my := !my +. (m *. Fbuf.get t.vy i);
    mz := !mz +. (m *. Fbuf.get t.vz i)
  done;
  (!mx, !my, !mz)

let zero_forces t =
  Fbuf.fill t.fx 0.0;
  Fbuf.fill t.fy 0.0;
  Fbuf.fill t.fz 0.0
