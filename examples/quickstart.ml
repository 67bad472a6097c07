(* Quickstart: the math-library stack in a few lines.

   Solves a 2D Poisson problem three ways — plain CG, hypre BoomerAMG, and
   AMG-preconditioned CG — and prices the AMG solve phase on the simulated
   Sierra hardware.

   Run with: dune exec examples/quickstart.exe *)

let () =
  Fmt.pr "== iCoE reproduction quickstart ==@.@.";
  (* 1. a discretized PDE: the 2D Laplacian on a 64 x 64 grid *)
  let n = 64 in
  let a = Linalg.Csr.laplacian_2d n n in
  let ndof = n * n in
  Fmt.pr "problem: 2D Poisson, %d unknowns, %d nonzeros@." ndof (Linalg.Csr.nnz a);
  (* manufactured solution *)
  let rng = Icoe_util.Rng.create 1 in
  let x_true = Array.init ndof (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
  let b = Linalg.Csr.spmv a x_true in
  let x0 = Array.make ndof 0.0 in
  (* 2. plain conjugate gradients *)
  let cg = Linalg.Krylov.cg ~tol:1e-10 ~max_iter:5000 ~op:(Linalg.Csr.spmv_into a) b x0 in
  Fmt.pr "plain CG:    %4d iterations (residual %.1e)@." cg.Linalg.Krylov.iters
    cg.Linalg.Krylov.residual;
  (* 3. BoomerAMG: setup on the "CPU", solve phase is matvec-shaped *)
  let amg = Hypre.Boomeramg.setup a in
  Fmt.pr "BoomerAMG:   %d levels, operator complexity %.2f@."
    (Hypre.Boomeramg.num_levels amg)
    (Hypre.Boomeramg.operator_complexity amg);
  let pcg = Hypre.Boomeramg.pcg_solve ~tol:1e-10 amg b x0 in
  Fmt.pr "AMG-PCG:     %4d iterations (residual %.1e)@." pcg.Linalg.Krylov.iters
    pcg.Linalg.Krylov.residual;
  let err = Icoe_util.Stats.max_abs_diff pcg.Linalg.Krylov.x x_true in
  Fmt.pr "max error vs manufactured solution: %.2e@.@." err;
  (* 4. price one V-cycle on the simulated machines *)
  let w = Hypre.Boomeramg.v_cycle_work amg in
  let t_gpu = Hwsim.Roofline.time Hwsim.Device.v100 w in
  let t_cpu = Hwsim.Roofline.time Hwsim.Device.power9 w in
  Fmt.pr "one V-cycle priced on the hardware model:@.";
  Fmt.pr "  V100:  %.1f us@." (t_gpu *. 1e6);
  Fmt.pr "  P9:    %.1f us@." (t_cpu *. 1e6);
  Fmt.pr "(at this small size launch overhead dominates the GPU — exactly@.";
  Fmt.pr " the effect the paper's teams fought with kernel fusion)@."
