(** Sec 4.10.1: hypre structured BoxLoop backends and BoomerAMG. *)

open Icoe_util

let hypre () =
  (* structured BoxLoop solver across backends: same numerics, different
     simulated cost *)
  let t = Table.create ~title:"Sec 4.10.1: structured BoxLoop solver backends (64^2 Poisson)"
      ~aligns:[| Table.Left; Table.Right; Table.Right |]
      [ "backend"; "sweeps"; "simulated ms" ] in
  List.iter
    (fun policy ->
      let clock = Hwsim.Clock.create () in
      let device =
        if Prog.Policy.side policy = Prog.Policy.Host then Hwsim.Device.power9
        else Hwsim.Device.v100
      in
      let ctx = Prog.Exec.make_ctx ~policy ~device ~clock in
      (* 64^2 with its walls: a 62^2 interior *)
      let lvl = Hypre.Pfmg.create_level 62 62 in
      lvl.Hypre.Pfmg.b.(Hypre.Pfmg.idx lvl 32 32) <- 1.0;
      let sweeps, _ = Hypre.Pfmg.jacobi ~tol:1e-6 ctx lvl in
      Table.add_row t
        [ Prog.Policy.name policy; string_of_int sweeps;
          Table.fcell ~prec:2 (Hwsim.Clock.total clock *. 1e3) ])
    [ Prog.Policy.Openmp 22; Prog.Policy.Omp_target; Prog.Policy.Raja_cuda;
      Prog.Policy.Cuda ];
  (* BoomerAMG on a 3D problem; the solve-phase V-cycle is priced at the
     paper's production scale (200^3 unknowns) where launch overheads are
     amortized *)
  let a = Linalg.Csr.laplacian_3d 12 12 12 in
  let amg = Hypre.Boomeramg.setup a in
  let b = Array.make 1728 1.0 in
  let r = Hypre.Boomeramg.pcg_solve ~tol:1e-10 amg b (Array.make 1728 0.0) in
  let w = Hypre.Boomeramg.v_cycle_work amg in
  let scale = (200.0 ** 3.0) /. 1728.0 in
  let w_big = { (Hwsim.Kernel.scale scale w) with Hwsim.Kernel.launches = w.Hwsim.Kernel.launches } in
  let gpu_t = Hwsim.Roofline.time Hwsim.Device.v100 w_big in
  let cpu_t = Hwsim.Roofline.time Hwsim.Device.power9 w_big in
  Harness.section "Sec 4.10.1 — hypre"
    (Fmt.str
       "%sBoomerAMG 12^3 Laplacian: %d levels, operator complexity %.2f, PCG converged in %d iters\n\
        solve-phase V-cycle at 200^3 scale (spmv-shaped): %.1f ms on V100 vs %.1f ms on P9 (%.1fx)\n"
       (Table.render t) (Hypre.Boomeramg.num_levels amg)
       (Hypre.Boomeramg.operator_complexity amg) r.Linalg.Krylov.iters
       (gpu_t *. 1e3) (cpu_t *. 1e3) (cpu_t /. gpu_t))

let harness =
  Harness.make ~id:"hypre" ~description:"hypre BoxLoops + BoomerAMG (Sec 4.10.1)"
    ~tags:[ "study"; "activity:hypre" ]
    hypre
