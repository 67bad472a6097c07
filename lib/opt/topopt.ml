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
  (* the solve's C kernel reads its vectors unchecked: sizes are
     validated here, once *)
  if nx < 1 || ny < 1 then
    invalid_arg
      (Printf.sprintf "Topopt.create: grid %dx%d, nx and ny must be >= 1" nx
         ny);
  if not (volfrac > 0.0 && volfrac <= 1.0) then
    invalid_arg
      (Printf.sprintf "Topopt.create: volfrac = %g outside (0, 1]" volfrac);
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

(* the kernels, in topopt_stubs.c; every vector has one entry per cell,
   which the callers own *)

(* [apply_kernel s u y]: y <- A u, each cell summed from 0.0 over its
   links in the order left, right, down, up *)
external apply_kernel : stencil -> float array -> float array -> unit
  = "topopt_apply"
[@@noalloc]

(* [cg_kernel s x r p ap io bnorm tol max_iter]: the iterations of
   [Linalg.Krylov.cg] without a preconditioner, from x, r = b - A x,
   p = r and io.(0) = r.r; returns the iterations done and leaves the
   last r.r in io.(0) *)
external cg_kernel :
  stencil -> float array -> float array -> float array -> float array ->
  float array -> (float[@unboxed]) -> (float[@unboxed]) -> (int[@untagged]) ->
  (int[@untagged]) = "topopt_cg_byte" "topopt_cg"
[@@noalloc]

(* y <- A u; a sink (bottom row only) is an identity row *)
let apply s u y =
  let nx = s.snx and ny = s.sny in
  if Array.length u <> nx * ny || Array.length y <> nx * ny then
    invalid_arg
      (Printf.sprintf "Topopt.apply: u has length %d, y %d for a %dx%d grid"
         (Array.length u) (Array.length y) nx ny);
  if u == y then invalid_arg "Topopt.apply: u and y are the same array";
  apply_kernel s u y

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
  let s = stencil t in
  (* CG from x0 = 0 as [Linalg.Krylov.cg] sets it up, allocation for
     allocation, x0 and its copy included: these 320-float arrays go
     straight to the major heap, and one fewer per solve paces the major
     GC differently and raises the schedule workload's peak heap *)
  let x0 = Array.make n 0.0 in
  let b = load t in
  let x = Array.copy x0 in
  let ap = Array.make n 0.0 in
  apply_kernel s x ap;
  let r = Linalg.Vec.sub b ap in
  let p = Array.copy r in
  let bnorm = fmax (Linalg.Vec.nrm2 b) 1e-300 in
  let io = [| Linalg.Vec.dot r r |] in
  let iters = cg_kernel s x r p ap io bnorm tol (8 * n) in
  let residual = sqrt io.(0) /. bnorm in
  ignore
    (Linalg.Krylov.record `Cg
       { Linalg.Krylov.x; iters; residual; converged = residual <= tol });
  t.cg_iters_total <- t.cg_iters_total + iters;
  (x, iters)

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
  (* Per-cell thresholds on q = filtered/lam (the bisection's
     sens/lam) that settle the move-limit clamp without the power: r * q^0.3 reaches the upper limit
     min(r + 0.05, 1) once q >= (min(r + 0.05, 1) / r)^(1/0.3), and
     stays under the lower one max(r - 0.05, rho_min) while
     q <= (max(r - 0.05, rho_min) / r)^(1/0.3). The factors 1 +/- 1e-9
     move each test ~3e-10 (relative) into its side, about 10^7 times
     the rounding of the powers, so a cell settled here ends exactly
     where the full expression puts it; every other q, NaN included,
     takes the full expression, and so does a density outside
     [rho_min, 1] (NaN thresholds). The thresholds reuse the unfiltered
     [sens] and [b], dead by now: more 320-float arrays per call would
     pace the major GC differently. *)
  let q_hi = sens and q_lo = b in
  for k = 0 to n - 1 do
    let r = t.rho.(k) in
    if r >= rho_min && r <= 1.0 then begin
      q_hi.(k) <-
        ((fmin (r +. 0.05) 1.0 /. r) ** (1.0 /. 0.3)) *. (1.0 +. 1e-9);
      q_lo.(k) <-
        ((fmax (r -. 0.05) rho_min /. r) ** (1.0 /. 0.3)) *. (1.0 -. 1e-9)
    end
    else begin
      q_hi.(k) <- Float.nan;
      q_lo.(k) <- Float.nan
    end
  done;
  let sens = filtered in
  (* bisection on the Lagrange multiplier to satisfy the volume constraint *)
  let total = float_of_int n *. t.volfrac in
  let lo = ref 1e-12 and hi = ref (1.0 +. Array.fold_left fmax 0.0 sens) in
  let new_rho = Array.make n 0.0 in
  (* A step whose lam equals the step before (the bracket has closed to
     adjacent floats) would rerun that step's pass and store that lam
     again into the bound that already holds it, and so would every step
     after it: those steps skip the pass. *)
  let prev = ref Float.nan in
  for _ = 1 to 60 do
    let lam = 0.5 *. (!lo +. !hi) in
    if lam <> !prev then begin
      prev := lam;
      let vol = ref 0.0 in
      for k = 0 to n - 1 do
        let r = t.rho.(k) and q = sens.(k) /. lam in
        let v =
          if q >= q_hi.(k) then fmax rho_min (fmin 1.0 (r +. 0.05))
          else if q <= q_lo.(k) then fmax rho_min (fmin 1.0 (r -. 0.05))
          else
            fmax rho_min
              (fmin 1.0
                 (fmax (r -. 0.05)
                    (fmin (r +. 0.05) (r *. (fmax 0.0 q ** 0.3)))))
        in
        new_rho.(k) <- v;
        vol := !vol +. v
      done;
      if !vol > total then lo := lam else hi := lam
    end
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
