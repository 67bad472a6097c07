(** Structured-solver BoxLoops.

    hypre's structured solvers are "abstracted with macros called BoxLoops
    ... completely restructured to allow ports of CUDA, OpenMP 4.5, RAJA and
    Kokkos into the isolated BoxLoops". Here a box loop is a plain
    [for j ... for i ...] sweep over an index box, followed by [charge],
    which prices the sweep under a pluggable execution context. The
    structured PFMG-style solver below is written entirely in that shape,
    so swapping the backend is a one-argument change. *)

type box = { ilo : int; ihi : int; jlo : int; jhi : int }

let box_size b = (b.ihi - b.ilo + 1) * (b.jhi - b.jlo + 1)

let charge ctx ~phase ~flops_per ~bytes_per b =
  Prog.Exec.charge ctx ~phase ~n:(box_size b) ~flops_per ~bytes_per

(** 5-point structured Poisson smoother (weighted Jacobi) on an
    (nx x ny) interior grid with Dirichlet walls, all as box loops. *)
module Struct_solver = struct
  type t = {
    nx : int;
    ny : int;
    u : float array;
    b : float array;
    scratch : float array;
  }

  let create nx ny =
    if nx < 3 || ny < 3 then
      invalid_arg
        (Printf.sprintf "Struct_solver.create: %d x %d grid has no interior (need both >= 3)"
           nx ny);
    {
      nx;
      ny;
      u = Array.make (nx * ny) 0.0;
      b = Array.make (nx * ny) 0.0;
      scratch = Array.make (nx * ny) 0.0;
    }

  let idx t i j = i + (t.nx * j)

  let interior t = { ilo = 1; ihi = t.nx - 2; jlo = 1; jhi = t.ny - 2 }

  (** One weighted-Jacobi sweep; returns nothing, updates [t.u]. *)
  let jacobi_sweep ctx ?(w = 0.8) t =
    let { u; b; scratch; _ } = t in
    let box = interior t in
    for j = box.jlo to box.jhi do
      for i = box.ilo to box.ihi do
        let k = idx t i j in
        let nb = u.(k - 1) +. u.(k + 1) +. u.(k - t.nx) +. u.(k + t.nx) in
        scratch.(k) <- u.(k) +. (w *. (((b.(k) +. nb) /. 4.0) -. u.(k)))
      done
    done;
    charge ctx ~phase:"struct-smooth" ~flops_per:8.0 ~bytes_per:48.0 box;
    for j = box.jlo to box.jhi do
      for i = box.ilo to box.ihi do
        let k = idx t i j in
        u.(k) <- scratch.(k)
      done
    done;
    charge ctx ~phase:"struct-copy" ~flops_per:0.0 ~bytes_per:16.0 box

  (** Residual max-norm over the interior. The fold is [Stdlib.max]
      written out, which keeps the accumulator an unboxed float. *)
  let residual_norm ctx t =
    let { u; b; _ } = t in
    let box = interior t in
    let acc = ref 0.0 in
    for j = box.jlo to box.jhi do
      for i = box.ilo to box.ihi do
        let kk = idx t i j in
        let nb = u.(kk - 1) +. u.(kk + 1) +. u.(kk - t.nx) +. u.(kk + t.nx) in
        let a = Float.abs (b.(kk) +. nb -. (4.0 *. u.(kk))) in
        acc := if !acc >= a then !acc else a
      done
    done;
    Prog.Exec.charge_reduce ctx ~phase:"struct-residual" ~n:(box_size box)
      ~flops_per:7.0 ~bytes_per:48.0;
    !acc

  (** Iterate to tolerance; returns (sweeps, final residual). *)
  let solve ?(tol = 1e-8) ?(max_sweeps = 5000) ctx t =
    let r0 = max (residual_norm ctx t) 1e-300 in
    let sweeps = ref 0 in
    let r = ref r0 in
    while !r /. r0 > tol && !sweeps < max_sweeps do
      jacobi_sweep ctx t;
      incr sweeps;
      (* residual check every 10 sweeps keeps reduction traffic modest *)
      if !sweeps mod 10 = 0 then r := residual_norm ctx t
    done;
    r := residual_norm ctx t;
    (!sweeps, !r /. r0)
end
