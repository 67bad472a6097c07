(** Cartesian 2D quad meshes with tensor-product H1 dof numbering.

    Elements are (nx x ny) squares on [0,lx] x [0,ly]; order-p continuous
    dofs sit on the per-dimension GLL lattice, (nx*p+1) x (ny*p+1) global
    points. Boundary dofs are tracked for Dirichlet elimination. *)

type t = {
  nx : int;
  ny : int;
  p : int;
  lx : float;
  ly : float;
  ndof_x : int;
  ndof_y : int;
}

let create ?(lx = 1.0) ?(ly = 1.0) ~nx ~ny ~p () =
  if not (nx >= 1 && ny >= 1 && p >= 1) then
    invalid_arg
      (Printf.sprintf "Mesh.create: nx = %d, ny = %d, p = %d (each must be >= 1)"
         nx ny p);
  { nx; ny; p; lx; ly; ndof_x = (nx * p) + 1; ndof_y = (ny * p) + 1 }

let num_elements t = t.nx * t.ny
let num_dofs t = t.ndof_x * t.ndof_y
let hx t = t.lx /. float_of_int t.nx
let hy t = t.ly /. float_of_int t.ny

(** Global dof index of local tensor node (i,j) of element (ex,ey). *)
let global_dof t ~ex ~ey ~i ~j =
  if not (i >= 0 && i <= t.p && j >= 0 && j <= t.p) then
    invalid_arg
      (Printf.sprintf "Mesh.global_dof: local node (%d, %d) outside [0, %d]^2" i j
         t.p);
  let gx = (ex * t.p) + i and gy = (ey * t.p) + j in
  gx + (t.ndof_x * gy)

(** Physical coordinates of global dof [g], using the per-element GLL
    lattice defined by [nodes] (the basis nodal points on [-1,1]). *)
let dof_coords t nodes g =
  let gx = g mod t.ndof_x and gy = g / t.ndof_x in
  let coord n h nelem =
    let e = min (n / t.p) (nelem - 1) in
    let i = n - (e * t.p) in
    (float_of_int e *. h) +. ((nodes.(i) +. 1.0) /. 2.0 *. h)
  in
  (coord gx (hx t) t.nx, coord gy (hy t) t.ny)

(** Is global dof [g] on the domain boundary? *)
let is_boundary t g =
  let gx = g mod t.ndof_x and gy = g / t.ndof_x in
  gx = 0 || gx = t.ndof_x - 1 || gy = 0 || gy = t.ndof_y - 1

let boundary_dofs t =
  let acc = ref [] in
  for g = num_dofs t - 1 downto 0 do
    if is_boundary t g then acc := g :: !acc
  done;
  !acc

(** Gather element-local dof values (row-major (p+1)^2) from global [u]. *)
let gather t u ~ex ~ey local =
  let p1 = t.p + 1 in
  for j = 0 to t.p do
    for i = 0 to t.p do
      local.((j * p1) + i) <- u.(global_dof t ~ex ~ey ~i ~j)
    done
  done

(** Scatter-add element-local values into global [y]. *)
let scatter_add t local ~ex ~ey y =
  let p1 = t.p + 1 in
  for j = 0 to t.p do
    for i = 0 to t.p do
      y.(global_dof t ~ex ~ey ~i ~j) <- y.(global_dof t ~ex ~ey ~i ~j) +. local.((j * p1) + i)
    done
  done
