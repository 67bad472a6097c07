(** hypre's structured solvers — the BoxLoop path the paper ports: "BoxLoops
    ... completely restructured to allow ports of CUDA, OpenMP 4.5, RAJA and
    Kokkos into the isolated BoxLoops".

    Here a box loop is a plain row loop over a level's interior followed by
    [Prog.Exec.charge], which prices the sweep under a pluggable execution
    context, so swapping the backend is a one-argument change. Two solvers
    share the one level type and kernel set: weighted Jacobi on a single
    level of any interior size, and PFMG, geometric multigrid on the 5-point
    Poisson problem with full coarsening, damped-Jacobi smoothing, bilinear
    prolongation and full-weighting restriction. PFMG grid sides must be
    (2^k - 1) so that coarsening terminates at a single interior point. *)

type level = {
  nx : int;  (** interior points along i *)
  ny : int;  (** interior points along j *)
  u : float array;  (** (nx+2) x (ny+2) with ghost walls *)
  b : float array;
  r : float array;
}

type t = { levels : level array }

let m_vcycles =
  Icoe_obs.Metrics.counter ~help:"PFMG V-cycles applied" "pfmg_vcycles_total"

let m_residual =
  Icoe_obs.Metrics.gauge ~help:"Final relative residual of the last PFMG solve"
    "pfmg_last_residual"

let idx lvl i j = i + ((lvl.nx + 2) * j)

let create_level nx ny =
  if nx < 1 || ny < 1 then
    invalid_arg
      (Printf.sprintf "Pfmg.create_level: %d x %d interior is empty (need both >= 1)" nx ny);
  let m = (nx + 2) * (ny + 2) in
  { nx; ny; u = Array.make m 0.0; b = Array.make m 0.0; r = Array.make m 0.0 }

(** Build a hierarchy for an (n x n) interior grid, n = 2^k - 1. *)
let create n =
  if not (n >= 1 && (n + 1) land n = 0) then
    invalid_arg (Printf.sprintf "Pfmg.create: n = %d is not 2^k - 1" n);
  let rec build n acc = if n < 1 then acc else build ((n - 1) / 2) (create_level n n :: acc) in
  let levels = List.rev (build n []) in
  { levels = Array.of_list levels }

let finest t = t.levels.(0)

(* one damped-Jacobi sweep on a level, with [r] as the scratch *)
let smooth ctx lvl =
  let u = lvl.u and b = lvl.b and r = lvl.r in
  let stride = lvl.nx + 2 in
  for j = 1 to lvl.ny do
    for i = 1 to lvl.nx do
      let k = idx lvl i j in
      let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
      r.(k) <- u.(k) +. (0.8 *. (((b.(k) +. nb) /. 4.0) -. u.(k)))
    done
  done;
  Prog.Exec.charge ctx ~phase:"struct-smooth" ~n:(lvl.nx * lvl.ny)
    ~flops_per:8.0 ~bytes_per:48.0;
  for j = 1 to lvl.ny do
    for i = 1 to lvl.nx do
      let k = idx lvl i j in
      u.(k) <- r.(k)
    done
  done;
  Prog.Exec.charge ctx ~phase:"struct-copy" ~n:(lvl.nx * lvl.ny)
    ~flops_per:0.0 ~bytes_per:16.0

(* residual r = b - A u (A = 4u - neighbours, h-scaled rhs baked into b) *)
let residual ctx lvl =
  let u = lvl.u and b = lvl.b and r = lvl.r in
  let stride = lvl.nx + 2 in
  for j = 1 to lvl.ny do
    for i = 1 to lvl.nx do
      let k = idx lvl i j in
      let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
      r.(k) <- b.(k) +. nb -. (4.0 *. u.(k))
    done
  done;
  Prog.Exec.charge ctx ~phase:"struct-residual" ~n:(lvl.nx * lvl.ny)
    ~flops_per:7.0 ~bytes_per:48.0

(** Residual max-norm over a level's interior, fused (nothing is written)
    and priced as the reduction it is. The fold is written out, which
    keeps the accumulator an unboxed float, and keeps a NaN cell: once
    [acc] is NaN no comparison replaces it. *)
let residual_norm ctx lvl =
  let u = lvl.u and b = lvl.b in
  let stride = lvl.nx + 2 in
  let acc = ref 0.0 in
  for j = 1 to lvl.ny do
    for i = 1 to lvl.nx do
      let k = idx lvl i j in
      let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
      let a = Float.abs (b.(k) +. nb -. (4.0 *. u.(k))) in
      acc := if a > !acc || a <> a then a else !acc
    done
  done;
  Prog.Exec.charge_reduce ctx ~phase:"struct-residual" ~n:(lvl.nx * lvl.ny)
    ~flops_per:7.0 ~bytes_per:48.0;
  !acc

(* full-weighting restriction of fine.r into coarse.b; fine n = 2c+1 *)
let restrict ctx ~(fine : level) ~(coarse : level) =
  let fr = fine.r in
  let fs = fine.nx + 2 in
  for cj = 1 to coarse.ny do
    for ci = 1 to coarse.nx do
      let fi = 2 * ci and fj = 2 * cj in
      let k = fi + (fs * fj) in
      let v =
        (4.0 *. fr.(k))
        +. (2.0 *. (fr.(k - 1) +. fr.(k + 1) +. fr.(k - fs) +. fr.(k + fs)))
        +. fr.(k - fs - 1) +. fr.(k - fs + 1) +. fr.(k + fs - 1)
        +. fr.(k + fs + 1)
      in
      (* factor 4 keeps the coarse operator consistent under full
         weighting (scale 1/16 x h^2 ratio 4) *)
      coarse.b.(idx coarse ci cj) <- v /. 4.0
    done
  done;
  Prog.Exec.charge ctx ~phase:"struct-restrict" ~n:(coarse.nx * coarse.ny)
    ~flops_per:12.0 ~bytes_per:80.0

(* bilinear prolongation of coarse.u added into fine.u *)
let prolong ctx ~(coarse : level) ~(fine : level) =
  let cu = coarse.u in
  let cs = coarse.nx + 2 in
  let fs = fine.nx + 2 in
  let fu = fine.u in
  for fj = 1 to fine.ny do
    for fi = 1 to fine.nx do
      let ci = fi / 2 and cj = fj / 2 in
      let v =
        match (fi land 1, fj land 1) with
        | 0, 0 -> cu.(ci + (cs * cj))
        | 1, 0 -> 0.5 *. (cu.(ci + (cs * cj)) +. cu.(ci + 1 + (cs * cj)))
        | 0, 1 -> 0.5 *. (cu.(ci + (cs * cj)) +. cu.(ci + (cs * (cj + 1))))
        | _ ->
            0.25
            *. (cu.(ci + (cs * cj)) +. cu.(ci + 1 + (cs * cj))
               +. cu.(ci + (cs * (cj + 1)))
               +. cu.(ci + 1 + (cs * (cj + 1))))
      in
      fu.(fi + (fs * fj)) <- fu.(fi + (fs * fj)) +. v
    done
  done;
  Prog.Exec.charge ctx ~phase:"struct-prolong" ~n:(fine.nx * fine.ny)
    ~flops_per:6.0 ~bytes_per:48.0

(** One V(2, 2)-cycle. *)
let v_cycle ctx t =
  Icoe_obs.Metrics.inc m_vcycles;
  let nl = Array.length t.levels in
  let rec descend l =
    let lvl = t.levels.(l) in
    if l = nl - 1 then
      (* coarsest: a handful of sweeps solves the tiny system *)
      for _ = 1 to 8 do
        smooth ctx lvl
      done
    else begin
      smooth ctx lvl;
      smooth ctx lvl;
      residual ctx lvl;
      let coarse = t.levels.(l + 1) in
      restrict ctx ~fine:lvl ~coarse;
      Array.fill coarse.u 0 (Array.length coarse.u) 0.0;
      descend (l + 1);
      prolong ctx ~coarse ~fine:lvl;
      smooth ctx lvl;
      smooth ctx lvl
    end
  in
  descend 0

(* [residual_norm] for the solver [fn]: a NaN norm would read as
   converged (every [r > tol] test is false), so it stops the solve *)
let checked_norm fn ctx lvl =
  let r = residual_norm ctx lvl in
  if r <> r then invalid_arg (fn ^ ": residual norm is NaN");
  r

(** Solve to relative tolerance; returns (cycles, final relative norm). *)
let solve ?(tol = 1e-10) ?(max_cycles = 50) ctx t =
  let f = finest t in
  let r0 = max (checked_norm "Pfmg.solve" ctx f) 1e-300 in
  let rec go c =
    let r = checked_norm "Pfmg.solve" ctx f /. r0 in
    if r <= tol || c >= max_cycles then begin
      Icoe_obs.Metrics.set m_residual r;
      (c, r)
    end
    else begin
      v_cycle ctx t;
      go (c + 1)
    end
  in
  go 0

(** Weighted Jacobi on one level; returns (sweeps, final relative
    residual). *)
let jacobi ?(tol = 1e-8) ?(max_sweeps = 5000) ctx lvl =
  let r0 = max (checked_norm "Pfmg.jacobi" ctx lvl) 1e-300 in
  let sweeps = ref 0 in
  let r = ref r0 in
  while !r /. r0 > tol && !sweeps < max_sweeps do
    smooth ctx lvl;
    incr sweeps;
    (* residual check every 10 sweeps keeps reduction traffic modest *)
    if !sweeps mod 10 = 0 then r := checked_norm "Pfmg.jacobi" ctx lvl
  done;
  r := checked_norm "Pfmg.jacobi" ctx lvl;
  (!sweeps, !r /. r0)
