(** SIMP topology optimization with a matrix-free solver — the Opt
    activity's GPU code. The design problem is heat-conduction compliance
    minimization on a 2D grid (the standard scalar benchmark): distribute
    a limited volume of conductive material so a heated region is best
    connected to a sink. The state solve is matrix-free CG on the
    density-dependent 5-point operator (the paper's "matrix-free solver
    implemented in CUDA"), and the texture-cache story of Sec 4.7 is a
    device-dependent bandwidth lever on that operator. *)

type t = {
  nx : int;
  ny : int;
  volfrac : float;  (** volume fraction of material allowed *)
  mutable penal : float;  (** SIMP penalization exponent *)
  rho : float array;  (** design densities in [rho_min, 1] *)
  mutable compliance : float;
  mutable cg_iters_total : int;
}

let rho_min = 1e-3

let create ?(volfrac = 0.4) ?(penal = 3.0) ~nx ~ny () =
  {
    nx;
    ny;
    volfrac;
    penal;
    rho = Array.make (nx * ny) volfrac;
    compliance = infinity;
    cg_iters_total = 0;
  }

let idx t i j = i + (t.nx * j)

(* SIMP conductivity of cell k *)
let conductivity t k = rho_min +. ((1.0 -. rho_min) *. (t.rho.(k) ** t.penal))

(** Is (i, j) part of the heat sink (a short segment centred on the
    bottom edge — the "volume-to-point" benchmark geometry)? *)
let is_sink t i j = j = 0 && abs (i - (t.nx / 2)) <= Int.max 1 (t.nx / 8)

(* [Stdlib.max]/[min] on floats, monomorphic: the same tests, unboxed *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

(* The density-weighted 5-point operator of one state solve, with
   Dirichlet sink cells. The design is fixed during a solve, so each
   cell's four link coefficients (left, right, down, up; 0 where the
   grid ends), its diagonal (their sum, in that order) and its sink flag
   are computed once here, and every CG iteration only reads them. Each
   link takes the arithmetic mean of its two cells' conductivities
   (standard FE-style SIMP coupling; harmonic means over-block void links
   and destabilize the OC loop). *)
type stencil = {
  snx : int;
  sny : int;
  left : float array;
  right : float array;
  down : float array;
  up : float array;
  diag : float array;
  sink : bool array;
}

let stencil t =
  let nx = t.nx and ny = t.ny in
  let n = nx * ny in
  let cond = Array.init n (conductivity t) in
  let coef () = Array.make n 0.0 in
  let left = coef () and right = coef () and down = coef () and up = coef () in
  let diag = coef () and sink = Array.make n false in
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let k = idx t i j in
      if is_sink t i j then sink.(k) <- true
      else begin
        let kc = cond.(k) and d = ref 0.0 in
        let link (coefs : float array) k2 =
          let kk = 0.5 *. (kc +. cond.(k2)) in
          coefs.(k) <- kk;
          d := !d +. kk
        in
        if i > 0 then link left (k - 1);
        if i < nx - 1 then link right (k + 1);
        if j > 0 then link down (k - nx);
        if j < ny - 1 then link up (k + nx);
        diag.(k) <- !d
      end
    done
  done;
  { snx = nx; sny = ny; left; right; down; up; diag; sink }

let get (v : float array) i = Array.unsafe_get v i
let set (v : float array) i x = Array.unsafe_set v i x

(* the interior cells of the row starting at [row]: all four links and
   no sink (sinks lie on the bottom edge), so they sum without a branch,
   from 0.0 in the edge cells' order, and every cell rounds as if summed
   link by link. A leaf function, so the seven arrays stay in
   registers. *)
let apply_interior s u y row =
  let nx = s.snx in
  let left = s.left and right = s.right and down = s.down and up = s.up in
  let diag = s.diag in
  for k = row + 1 to row + nx - 2 do
    let acc =
      0.0
      +. (get left k *. get u (k - 1))
      +. (get right k *. get u (k + 1))
      +. (get down k *. get u (k - nx))
      +. (get up k *. get u (k + nx))
    in
    set y k ((get diag k *. get u k) -. acc)
  done

(* y <- A u, row by row. An edge cell sums only the links it has, from
   0.0 in the order left, right, down, up; a sink (bottom row only) is an
   identity row. *)
let apply s u y =
  let nx = s.snx and ny = s.sny in
  if Array.length u <> nx * ny || Array.length y <> nx * ny then
    invalid_arg
      (Printf.sprintf "Topopt.apply: u has length %d, y %d for a %dx%d grid"
         (Array.length u) (Array.length y) nx ny);
  let left = s.left and right = s.right and down = s.down and up = s.up in
  let diag = s.diag and sink = s.sink in
  (* bottom row: no down link *)
  for k = 0 to nx - 1 do
    if Array.unsafe_get sink k then set y k (get u k)
    else begin
      let acc = if k > 0 then 0.0 +. (get left k *. get u (k - 1)) else 0.0 in
      let acc = if k < nx - 1 then acc +. (get right k *. get u (k + 1)) else acc in
      let acc = if ny > 1 then acc +. (get up k *. get u (k + nx)) else acc in
      set y k ((get diag k *. get u k) -. acc)
    end
  done;
  (* middle rows: both end cells have down and up links *)
  for j = 1 to ny - 2 do
    let k = nx * j in
    let acc = if nx > 1 then 0.0 +. (get right k *. get u (k + 1)) else 0.0 in
    let acc =
      acc +. (get down k *. get u (k - nx)) +. (get up k *. get u (k + nx))
    in
    set y k ((get diag k *. get u k) -. acc);
    apply_interior s u y k;
    if nx > 1 then begin
      let k = k + nx - 1 in
      let acc =
        0.0
        +. (get left k *. get u (k - 1))
        +. (get down k *. get u (k - nx))
        +. (get up k *. get u (k + nx))
      in
      set y k ((get diag k *. get u k) -. acc)
    end
  done;
  (* top row: no up link *)
  if ny > 1 then begin
    let row = nx * (ny - 1) in
    for k = row to row + nx - 1 do
      let acc = if k > row then 0.0 +. (get left k *. get u (k - 1)) else 0.0 in
      let acc =
        if k < row + nx - 1 then acc +. (get right k *. get u (k + 1)) else acc
      in
      let acc = acc +. (get down k *. get u (k - nx)) in
      set y k ((get diag k *. get u k) -. acc)
    done
  end

(* heat load: flux enters along the top edge and must funnel down to the
   small central sink — the classic geometry whose optima are funnel/tree
   structures *)
let load t =
  Array.init (t.nx * t.ny) (fun k ->
      let j = k / t.nx in
      if j = t.ny - 1 then 1.0 else 0.0)

(** Solve the state equation; returns (temperature field, cg iterations). *)
let solve_state ?(tol = 1e-8) t =
  let n = t.nx * t.ny in
  let op = apply (stencil t) in
  let r =
    Linalg.Krylov.cg ~tol ~max_iter:(8 * n) ~op (load t) (Array.make n 0.0)
  in
  t.cg_iters_total <- t.cg_iters_total + r.Linalg.Krylov.iters;
  (r.Linalg.Krylov.x, r.Linalg.Krylov.iters)

(* optimality-criteria update with sensitivity = -dC/drho per cell *)
let oc_update t u =
  let n = t.nx * t.ny in
  let b = load t in
  (* compliance and cell sensitivities: C = u^T f; dC/drho_k ~
     -p rho^(p-1) * (local gradient energy) ; approximate with nodal
     temperature magnitude coupling *)
  t.compliance <- Linalg.Vec.dot u b;
  let sens = Array.make n 0.0 in
  let nx = t.nx and ny = t.ny in
  for j = 0 to ny - 1 do
    for i = 0 to nx - 1 do
      let k = idx t i j in
      if not (is_sink t i j) then begin
        let dk_drho =
          t.penal *. (1.0 -. rho_min) *. (t.rho.(k) ** (t.penal -. 1.0))
        in
        (* link sensitivity: arithmetic-mean link conductance
           (kc + kn)/2, d(link)/d(kc) = 1/2; neighbours left, right,
           down, up *)
        let uk = u.(k) and g2 = ref 0.0 in
        if i > 0 then begin
          let d = uk -. u.(k - 1) in
          g2 := !g2 +. (0.5 *. d *. d)
        end;
        if i < nx - 1 then begin
          let d = uk -. u.(k + 1) in
          g2 := !g2 +. (0.5 *. d *. d)
        end;
        if j > 0 then begin
          let d = uk -. u.(k - nx) in
          g2 := !g2 +. (0.5 *. d *. d)
        end;
        if j < ny - 1 then begin
          let d = uk -. u.(k + nx) in
          g2 := !g2 +. (0.5 *. d *. d)
        end;
        sens.(k) <- dk_drho *. !g2
      end
    done
  done;
  (* sensitivity filter (3x3 average): the standard guard against
     checkerboards and OC divergence *)
  let filtered = Array.make n 0.0 in
  for j = 0 to t.ny - 1 do
    for i = 0 to t.nx - 1 do
      let acc = ref 0.0 and cnt = ref 0 in
      for dj = -1 to 1 do
        for di = -1 to 1 do
          let i2 = i + di and j2 = j + dj in
          if i2 >= 0 && i2 < t.nx && j2 >= 0 && j2 < t.ny then begin
            acc := !acc +. sens.(idx t i2 j2);
            incr cnt
          end
        done
      done;
      filtered.(idx t i j) <- !acc /. float_of_int !cnt
    done
  done;
  let sens = filtered in
  (* bisection on the Lagrange multiplier to satisfy the volume constraint *)
  let total = float_of_int n *. t.volfrac in
  let lo = ref 1e-12 and hi = ref (1.0 +. Array.fold_left fmax 0.0 sens) in
  let new_rho = Array.make n 0.0 in
  for _ = 1 to 60 do
    let lam = 0.5 *. (!lo +. !hi) in
    let vol = ref 0.0 in
    for k = 0 to n - 1 do
      let r = t.rho.(k) in
      let scale = fmax 0.0 (sens.(k) /. lam) ** 0.3 in
      let v =
        fmax rho_min
          (fmin 1.0 (fmax (r -. 0.05) (fmin (r +. 0.05) (r *. scale))))
      in
      new_rho.(k) <- v;
      vol := !vol +. v
    done;
    if !vol > total then lo := lam else hi := lam
  done;
  Array.blit new_rho 0 t.rho 0 n

(** Run [iters] SIMP iterations with penalization continuation (the
    exponent ramps from 1 to its target over the first half, the standard
    guard against premature local minima); returns the compliance
    history. *)
let optimize ?(iters = 20) t =
  let target = t.penal in
  Array.init iters (fun it ->
      t.penal <-
        min target
          (1.0 +. ((target -. 1.0) *. float_of_int it /. (0.5 *. float_of_int iters)));
      let u, _ = solve_state t in
      oc_update t u;
      t.compliance)

let volume t = Icoe_util.Stats.mean t.rho

(* --- the Sec 4.7 texture-cache lever --- *)

(** Effective bandwidth fraction of the matrix-free apply: on Pascal the
    scattered density reads need the texture path; on Volta the unified
    L1 makes plain loads equally fast (which is why CUDA-specific texture
    code bought nothing on the final system and RAJA would have sufficed). *)
let apply_bandwidth_frac (d : Hwsim.Device.t) ~textures =
  match (d.Hwsim.Device.name, textures) with
  | "P100", true -> 0.72
  | "P100", false -> 0.42
  | "V100", _ -> 0.75
  | _, true -> 0.6
  | _, false -> 0.45

(** Simulated time of one matrix-free apply over [cells] cells. *)
let apply_time ~cells (d : Hwsim.Device.t) ~textures =
  let bytes = float_of_int cells *. 8.0 *. 7.0 in
  let bw = d.Hwsim.Device.mem_bw_gbs *. 1e9 *. apply_bandwidth_frac d ~textures in
  d.Hwsim.Device.launch_overhead_s +. (bytes /. bw)
