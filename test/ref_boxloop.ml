(* The closure-based BoxLoops that [Hypre.Pfmg]'s row loops replaced, for
   its Jacobi solve (once [Boxloop.Struct_solver]) and its V-cycle: every
   sweep called a per-cell closure [f i j] from inside a per-index
   closure, recovering (i, j) from a flat index with [mod] and [/], and
   the residual max-norm folded through a boxed [~combine:max]. The
   [forall]/[reduce] loops ran the body, then priced it with
   [Prog.Exec.charge] (plus the reduction's tree-combine tick). Kept,
   without the metrics registry, as the bit-exact oracle of the row-loop
   solvers: same [u], same counts, same clock phases. *)

open Hypre

let forall ctx ~phase ~n ~flops_per ~bytes_per f =
  for i = 0 to n - 1 do
    f i
  done;
  Prog.Exec.charge ctx ~phase ~n ~flops_per ~bytes_per

let reduce ctx ~phase ~n ~flops_per ~bytes_per ~init ~combine f =
  let acc = ref init in
  for i = 0 to n - 1 do
    acc := combine !acc (f i)
  done;
  Prog.Exec.charge ctx ~phase ~n ~flops_per ~bytes_per;
  let depth =
    Float.of_int ctx.Prog.Exec.device.Hwsim.Device.lanes |> Float.log2 |> Float.ceil
  in
  Hwsim.Clock.tick ctx.Prog.Exec.clock ~phase (depth *. 0.2e-6);
  !acc

type box = { ilo : int; ihi : int; jlo : int; jhi : int }

let box_size b = (b.ihi - b.ilo + 1) * (b.jhi - b.jlo + 1)

let boxloop2 ctx ~phase ~flops_per ~bytes_per b f =
  let ni = b.ihi - b.ilo + 1 in
  let nj = b.jhi - b.jlo + 1 in
  forall ctx ~phase ~n:(ni * nj) ~flops_per ~bytes_per (fun k ->
      let i = b.ilo + (k mod ni) in
      let j = b.jlo + (k / ni) in
      f i j)

let interior (lvl : Pfmg.level) = { ilo = 1; ihi = lvl.nx; jlo = 1; jhi = lvl.ny }

module Struct_solver = struct
  open Hypre.Pfmg

  let jacobi_sweep ctx ?(w = 0.8) t =
    let { u; b; r = scratch; _ } = t in
    let stride = t.nx + 2 in
    boxloop2 ctx ~phase:"struct-smooth" ~flops_per:8.0 ~bytes_per:48.0
      (interior t) (fun i j ->
        let k = idx t i j in
        let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
        scratch.(k) <- u.(k) +. (w *. (((b.(k) +. nb) /. 4.0) -. u.(k))));
    boxloop2 ctx ~phase:"struct-copy" ~flops_per:0.0 ~bytes_per:16.0
      (interior t) (fun i j ->
        let k = idx t i j in
        u.(k) <- scratch.(k))

  let residual_norm ctx t =
    let { u; b; _ } = t in
    let stride = t.nx + 2 in
    let box = interior t in
    reduce ctx ~phase:"struct-residual"
      ~n:(box_size box) ~flops_per:7.0 ~bytes_per:48.0 ~init:0.0 ~combine:max
      (fun k ->
        let ni = box.ihi - box.ilo + 1 in
        let i = box.ilo + (k mod ni) in
        let j = box.jlo + (k / ni) in
        let kk = idx t i j in
        let nb = u.(kk - 1) +. u.(kk + 1) +. u.(kk - stride) +. u.(kk + stride) in
        Float.abs (b.(kk) +. nb -. (4.0 *. u.(kk))))

  let solve ?(tol = 1e-8) ?(max_sweeps = 5000) ctx t =
    let r0 = max (residual_norm ctx t) 1e-300 in
    let sweeps = ref 0 in
    let r = ref r0 in
    while !r /. r0 > tol && !sweeps < max_sweeps do
      jacobi_sweep ctx t;
      incr sweeps;
      if !sweeps mod 10 = 0 then r := residual_norm ctx t
    done;
    r := residual_norm ctx t;
    (!sweeps, !r /. r0)
end

module Pfmg = struct
  open Hypre.Pfmg

  let smooth ctx ?(w = 0.8) lvl =
    let u = lvl.u and b = lvl.b and r = lvl.r in
    let stride = lvl.nx + 2 in
    boxloop2 ctx ~phase:"struct-smooth" ~flops_per:8.0 ~bytes_per:48.0
      (interior lvl) (fun i j ->
        let k = idx lvl i j in
        let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
        r.(k) <- u.(k) +. (w *. (((b.(k) +. nb) /. 4.0) -. u.(k))));
    boxloop2 ctx ~phase:"struct-copy" ~flops_per:0.0 ~bytes_per:16.0
      (interior lvl) (fun i j ->
        let k = idx lvl i j in
        u.(k) <- r.(k))

  let residual ctx lvl =
    let u = lvl.u and b = lvl.b and r = lvl.r in
    let stride = lvl.nx + 2 in
    boxloop2 ctx ~phase:"struct-residual" ~flops_per:7.0 ~bytes_per:48.0
      (interior lvl) (fun i j ->
        let k = idx lvl i j in
        let nb = u.(k - 1) +. u.(k + 1) +. u.(k - stride) +. u.(k + stride) in
        r.(k) <- b.(k) +. nb -. (4.0 *. u.(k)))

  let restrict ctx ~(fine : level) ~(coarse : level) =
    let fr = fine.r in
    let fs = fine.nx + 2 in
    boxloop2 ctx ~phase:"struct-restrict" ~flops_per:12.0 ~bytes_per:80.0
      (interior coarse) (fun ci cj ->
        let fi = 2 * ci and fj = 2 * cj in
        let k = fi + (fs * fj) in
        let v =
          (4.0 *. fr.(k))
          +. (2.0 *. (fr.(k - 1) +. fr.(k + 1) +. fr.(k - fs) +. fr.(k + fs)))
          +. fr.(k - fs - 1) +. fr.(k - fs + 1) +. fr.(k + fs - 1)
          +. fr.(k + fs + 1)
        in
        coarse.b.(ci + ((coarse.nx + 2) * cj)) <- v /. 4.0)

  let prolong ctx ~(coarse : level) ~(fine : level) =
    let cu = coarse.u in
    let cs = coarse.nx + 2 in
    let fs = fine.nx + 2 in
    let fu = fine.u in
    boxloop2 ctx ~phase:"struct-prolong" ~flops_per:6.0 ~bytes_per:48.0
      (interior fine) (fun fi fj ->
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
        fu.(fi + (fs * fj)) <- fu.(fi + (fs * fj)) +. v)

  let v_cycle ?(nu1 = 2) ?(nu2 = 2) ctx t =
    let nl = Array.length t.levels in
    let rec descend l =
      let lvl = t.levels.(l) in
      if l = nl - 1 then
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

  let residual_norm ctx t = Struct_solver.residual_norm ctx (finest t)

  let solve ?(tol = 1e-10) ?(max_cycles = 50) ctx t =
    let r0 = max (residual_norm ctx t) 1e-300 in
    let rec go c =
      let r = residual_norm ctx t /. r0 in
      if r <= tol || c >= max_cycles then (c, r)
      else begin
        v_cycle ctx t;
        go (c + 1)
      end
    in
    go 0
end
