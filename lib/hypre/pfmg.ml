(** PFMG: geometric multigrid for the structured path — the second of
    hypre's structured solvers the paper ports through BoxLoops.

    Solves the 5-point Poisson problem on an (n x n) interior grid
    (Dirichlet walls) with full coarsening, damped-Jacobi smoothing,
    bilinear prolongation and full-weighting restriction. Every sweep is
    a plain row loop over a level's interior priced by [Boxloop.charge],
    so the whole cycle runs under any execution policy. Grid sizes must
    be (2^k - 1) per side so that coarsening terminates at a single
    interior point. *)

type level = {
  n : int;  (** interior points per side *)
  u : float array;  (** (n+2)^2 with ghost walls *)
  b : float array;
  r : float array;
}

type t = { levels : level array }

let m_vcycles =
  Icoe_obs.Metrics.counter ~help:"PFMG V-cycles applied" "pfmg_vcycles_total"

let m_residual =
  Icoe_obs.Metrics.gauge ~help:"Final relative residual of the last PFMG solve"
    "pfmg_last_residual"

let idx lvl i j = i + ((lvl.n + 2) * j)

let make_level n =
  let m = (n + 2) * (n + 2) in
  { n; u = Array.make m 0.0; b = Array.make m 0.0; r = Array.make m 0.0 }

(** Build a hierarchy for an (n x n) interior grid, n = 2^k - 1. *)
let create n =
  if not (n >= 1 && (n + 1) land n = 0) then
    invalid_arg (Printf.sprintf "Pfmg.create: n = %d is not 2^k - 1" n);
  let rec build n acc = if n < 1 then acc else build ((n - 1) / 2) (make_level n :: acc) in
  let levels = List.rev (build n []) in
  { levels = Array.of_list levels }

let finest t = t.levels.(0)

let interior lvl = { Boxloop.ilo = 1; ihi = lvl.n; jlo = 1; jhi = lvl.n }

(* one damped-Jacobi sweep on a level *)
let smooth ctx ?(w = 0.8) lvl =
  let u = lvl.u and b = lvl.b and r = lvl.r in
  let stride = lvl.n + 2 in
  for j = 1 to lvl.n do
    for i = 1 to lvl.n do
      let k = idx lvl i j in
      let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
      r.(k) <- u.(k) +. (w *. (((b.(k) +. nb) /. 4.0) -. u.(k)))
    done
  done;
  Boxloop.charge ctx ~phase:"pfmg-smooth" ~flops_per:8.0 ~bytes_per:48.0 (interior lvl);
  for j = 1 to lvl.n do
    for i = 1 to lvl.n do
      let k = idx lvl i j in
      u.(k) <- r.(k)
    done
  done;
  Boxloop.charge ctx ~phase:"pfmg-copy" ~flops_per:0.0 ~bytes_per:16.0 (interior lvl)

(* residual r = b - A u (A = 4u - neighbours, h-scaled rhs baked into b) *)
let residual ctx lvl =
  let u = lvl.u and b = lvl.b and r = lvl.r in
  let stride = lvl.n + 2 in
  for j = 1 to lvl.n do
    for i = 1 to lvl.n do
      let k = idx lvl i j in
      let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
      r.(k) <- b.(k) +. nb -. (4.0 *. u.(k))
    done
  done;
  Boxloop.charge ctx ~phase:"pfmg-residual" ~flops_per:7.0 ~bytes_per:48.0 (interior lvl)

(* full-weighting restriction of fine.r into coarse.b; fine n = 2c+1 *)
let restrict ctx ~(fine : level) ~(coarse : level) =
  let fr = fine.r in
  let fs = fine.n + 2 in
  for cj = 1 to coarse.n do
    for ci = 1 to coarse.n do
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
      coarse.b.(ci + ((coarse.n + 2) * cj)) <- v /. 4.0
    done
  done;
  Boxloop.charge ctx ~phase:"pfmg-restrict" ~flops_per:12.0 ~bytes_per:80.0
    (interior coarse)

(* bilinear prolongation of coarse.u added into fine.u *)
let prolong ctx ~(coarse : level) ~(fine : level) =
  let cu = coarse.u in
  let cs = coarse.n + 2 in
  let fs = fine.n + 2 in
  let fu = fine.u in
  for fj = 1 to fine.n do
    for fi = 1 to fine.n do
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
  Boxloop.charge ctx ~phase:"pfmg-prolong" ~flops_per:6.0 ~bytes_per:48.0 (interior fine)

(** One V(nu1, nu2)-cycle. *)
let v_cycle ?(nu1 = 2) ?(nu2 = 2) ctx t =
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
      for _ = 1 to nu1 do
        smooth ctx lvl
      done;
      residual ctx lvl;
      let coarse = t.levels.(l + 1) in
      restrict ctx ~fine:lvl ~coarse;
      Array.fill coarse.u 0 (Array.length coarse.u) 0.0;
      descend (l + 1);
      prolong ctx ~coarse ~fine:lvl;
      for _ = 1 to nu2 do
        smooth ctx lvl
      done
    end
  in
  descend 0

(** Residual infinity norm on the finest level. The fold is
    [Stdlib.max] written out, which keeps the accumulator unboxed. *)
let residual_norm ctx t =
  let lvl = finest t in
  residual ctx lvl;
  let m = ref 0.0 in
  for j = 1 to lvl.n do
    for i = 1 to lvl.n do
      let a = Float.abs lvl.r.(idx lvl i j) in
      m := if !m >= a then !m else a
    done
  done;
  !m

(** Solve to relative tolerance; returns (cycles, final relative norm). *)
let solve ?(tol = 1e-10) ?(max_cycles = 50) ctx t =
  let r0 = max (residual_norm ctx t) 1e-300 in
  let rec go c =
    let r = residual_norm ctx t /. r0 in
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
