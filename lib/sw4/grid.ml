(** SW4 computational grid: 2D plane-strain elastic medium.

    Fields are flat row-major arrays (i + nx*j). The material model (rho,
    lambda, mu) varies per point, which is what lets the Hayward-like
    layered-basin scenario exist. *)

type t = {
  nx : int;
  ny : int;
  h : float;  (** grid spacing, metres *)
  rho : float array;  (** density *)
  lambda : float array;  (** Lame lambda *)
  mu : float array;  (** shear modulus *)
}

let idx t i j = i + (t.nx * j)

let create ~nx ~ny ~h =
  if nx < 9 || ny < 9 then
    invalid_arg
      (Fmt.str "Sw4.Grid.create: need at least 9 points per side, got %dx%d"
         nx ny);
  let n = nx * ny in
  {
    nx;
    ny;
    h;
    rho = Array.make n 1000.0;
    lambda = Array.make n 1e9;
    mu = Array.make n 1e9;
  }

(** Set material from a function of physical coordinates. *)
let set_material t f =
  for j = 0 to t.ny - 1 do
    for i = 0 to t.nx - 1 do
      let x = float_of_int i *. t.h and y = float_of_int j *. t.h in
      let rho, vp, vs = f ~x ~y in
      let mu = rho *. vs *. vs in
      let lambda = (rho *. vp *. vp) -. (2.0 *. mu) in
      if not (lambda > 0.0 || vp *. vp >= 2.0 *. vs *. vs) then
        invalid_arg
          (Fmt.str
             "Sw4.Grid.set_material: vp=%g is below sqrt(2)*vs (vs=%g) at \
              (%d, %d)"
             vp vs i j);
      t.rho.(idx t i j) <- rho;
      t.mu.(idx t i j) <- mu;
      t.lambda.(idx t i j) <- max lambda 0.0
    done
  done

(** Homogeneous material helper. *)
let homogeneous t ~rho ~vp ~vs = set_material t (fun ~x:_ ~y:_ -> (rho, vp, vs))

let p_speed t i j =
  let k = idx t i j in
  sqrt ((t.lambda.(k) +. (2.0 *. t.mu.(k))) /. t.rho.(k))

let s_speed t i j =
  let k = idx t i j in
  sqrt (t.mu.(k) /. t.rho.(k))

let max_p_speed t =
  let m = ref 0.0 in
  for j = 0 to t.ny - 1 do
    for i = 0 to t.nx - 1 do
      m := max !m (p_speed t i j)
    done
  done;
  !m

(** CFL-stable timestep for the 4th-order scheme. *)
let stable_dt ?(cfl = 0.5) t = cfl *. t.h /. max_p_speed t
