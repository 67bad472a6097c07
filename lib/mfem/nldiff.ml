(** The paper's integrated math-library benchmark (Sec 4.10.4):
    a nonlinear time-dependent diffusion problem

        u_t = div( kappa(u) grad u ),  kappa(u) = 1 + u^2,

    discretized with high-order continuous finite elements (partial
    assembly), integrated with the CVODE-style BDF, with each Newton linear
    system solved by PCG preconditioned by BoomerAMG on the low-order
    refined operator. This single driver exercises the MFEM + hypre +
    SUNDIALS stack end-to-end and records the event counts from which the
    Fig 8 timing breakdown and the Table 4 speedup grid are priced. *)

type counters = {
  mutable rhs_applies : int;  (** PA operator applies from RHS evaluations *)
  mutable solve_applies : int;  (** PA applies inside PCG *)
  mutable coeff_updates : int;  (** nonlinear coefficient rebuilds *)
  mutable vcycles : int;  (** AMG preconditioner applications *)
  mutable pcg_iters : int;
}

type result = {
  u : float array;
  counters : counters;
  ode_stats : Sundials.Cvode.stats;
  pa_work : Hwsim.Kernel.t;  (** one PA operator application *)
  vcycle_work : Hwsim.Kernel.t;  (** one AMG V-cycle *)
  ndof : int;
  mass_diag : float array;
}

let kappa_of_u u = 1.0 +. (u *. u)

(** Default smooth initial condition compatible with the Dirichlet walls. *)
let default_u0 ~x ~y = sin (Float.pi *. x) *. sin (Float.pi *. y)

(** Run the problem on an (n x n)-element order-p mesh to time [tf]. *)
let run ?(n = 8) ?(p = 2) ?(tf = 0.01) ?(rtol = 1e-5) ?(atol = 1e-8)
    ?(u0 = default_u0) () =
  let mesh = Mesh.create ~nx:n ~ny:n ~p () in
  let basis = Basis.create p in
  let cbasis = Basis.create_collocated p in
  let ndof = Mesh.num_dofs mesh in
  let bdof = Array.make ndof false in
  List.iter (fun g -> bdof.(g) <- true) (Mesh.boundary_dofs mesh);
  let mass = Diffusion.mass_diagonal mesh cbasis in
  let pa = Diffusion.Pa.setup mesh basis in
  let counters =
    { rhs_applies = 0; solve_applies = 0; coeff_updates = 0; vcycles = 0; pcg_iters = 0 }
  in
  (* initial condition at the GLL lattice; zero on the boundary *)
  let uinit =
    Array.init ndof (fun g ->
        if bdof.(g) then 0.0
        else
          let x, y = Mesh.dof_coords mesh cbasis.Basis.nodes g in
          u0 ~x ~y)
  in
  (* AMG preconditioner on the LOR operator of (M + gamma0 K), built once
     with the initial coefficient (lagged preconditioner, as in practice) *)
  let gamma0 = tf /. 20.0 in
  let k_lor = Lor.assemble ~kappa:(fun ~x ~y -> kappa_of_u (u0 ~x ~y)) mesh basis in
  let a_prec =
    (* M_diag + gamma0 * K_lor, with identity boundary rows *)
    let open Linalg.Csr in
    let triplets = ref [] in
    for i = 0 to k_lor.m - 1 do
      if bdof.(i) then triplets := (i, i, 1.0) :: !triplets
      else begin
        triplets := (i, i, mass.(i)) :: !triplets;
        for kk = k_lor.row_ptr.(i) to k_lor.row_ptr.(i + 1) - 1 do
          let j = k_lor.col_idx.(kk) in
          if not bdof.(j) then
            triplets := (i, j, gamma0 *. Icoe_util.Fbuf.get k_lor.values kk) :: !triplets
        done
      end
    done;
    of_triplets ~m:k_lor.m ~n:k_lor.n !triplets
  in
  let amg = Hypre.Boomeramg.setup a_prec in
  let scratch = Array.make ndof 0.0 in
  (* RHS: f(t, u) = -M^{-1} K(u) u on the interior, 0 on the boundary *)
  let rhs _t y =
    Diffusion.Pa.update_coefficients pa ~kappa_of_u ~u:y;
    counters.coeff_updates <- counters.coeff_updates + 1;
    Diffusion.Pa.apply pa y scratch;
    counters.rhs_applies <- counters.rhs_applies + 1;
    Array.init ndof (fun g ->
        if bdof.(g) then 0.0 else -.scratch.(g) /. mass.(g))
  in
  (* lsolve: (I - gamma J) x = b with J = -M^{-1} K(y) frozen, i.e.
     (M + gamma K) x = M b, by AMG-preconditioned CG *)
  let lsolve ~gamma ~t:_ ~y ~b =
    Diffusion.Pa.update_coefficients pa ~kappa_of_u ~u:y;
    counters.coeff_updates <- counters.coeff_updates + 1;
    let op x y =
      Diffusion.Pa.apply pa x scratch;
      counters.solve_applies <- counters.solve_applies + 1;
      for g = 0 to ndof - 1 do
        y.(g) <-
          (if bdof.(g) then x.(g)
           else (mass.(g) *. x.(g)) +. (gamma *. scratch.(g)))
      done
    in
    let precond r z =
      counters.vcycles <- counters.vcycles + 1;
      Hypre.Boomeramg.precond amg r z
    in
    let rhsv =
      Array.init ndof (fun g -> if bdof.(g) then 0.0 else mass.(g) *. b.(g))
    in
    let res =
      Linalg.Krylov.cg ~tol:1e-10 ~max_iter:400 ~precond ~op rhsv
        (Array.make ndof 0.0)
    in
    counters.pcg_iters <- counters.pcg_iters + res.Linalg.Krylov.iters;
    res.Linalg.Krylov.x
  in
  let r =
    Sundials.Cvode.bdf ~rtol ~atol ~h0:(tf /. 200.0) ~rhs ~lsolve ~t0:0.0
      ~y0:uinit tf
  in
  {
    u = r.Sundials.Cvode.y;
    counters;
    ode_stats = r.Sundials.Cvode.stats;
    pa_work = Diffusion.Pa.work pa;
    vcycle_work = Hypre.Boomeramg.v_cycle_work amg;
    ndof;
    mass_diag = mass;
  }

(** Price a completed run's phases on a device/policy pair, producing the
    Fig 8-style breakdown: formulation (coefficient rebuilds + RHS
    applies), preconditioner (V-cycles), solve (PCG operator applies +
    vector work). Returns (form_s, prec_s, solve_s).

    [scale] extrapolates the measured per-apply work volumes to a problem
    [scale] times larger (iteration counts are kept from the real run);
    this is how paper-scale sizes (up to 1.3M unknowns) are priced from an
    affordable real run. *)
let price ?(scale = 1.0) (res : result) ~(device : Hwsim.Device.t)
    ~(policy : Prog.Policy.t) =
  let res =
    if scale = 1.0 then res
    else
      {
        res with
        pa_work = Hwsim.Kernel.scale scale res.pa_work;
        vcycle_work = Hwsim.Kernel.scale scale res.vcycle_work;
        ndof = int_of_float (float_of_int res.ndof *. scale);
      }
  in
  let eff = Prog.Policy.efficiency policy device in
  let launch_mult = Prog.Policy.launch_multiplier policy in
  let time_of k =
    (float_of_int k.Hwsim.Kernel.launches *. launch_mult
    *. device.Hwsim.Device.launch_overhead_s)
    +. Hwsim.Roofline.time ~eff device { k with Hwsim.Kernel.launches = 0 }
  in
  let c = res.counters in
  (* coefficient rebuild ~ half an operator apply (one forward contraction
     set and a qpoint sweep) *)
  let coeff_work = Hwsim.Kernel.scale 0.5 res.pa_work in
  let pa_t = time_of { res.pa_work with Hwsim.Kernel.launches = 1 } in
  let coeff_t = time_of { coeff_work with Hwsim.Kernel.launches = 1 } in
  let vcycle_t = time_of res.vcycle_work in
  (* per-PCG-iteration vector work: ~5 axpy/dot streams over ndof *)
  let vec_work =
    Hwsim.Kernel.make ~name:"pcg-vec" ~launches:5
      ~flops:(10.0 *. float_of_int res.ndof)
      ~bytes:(80.0 *. float_of_int res.ndof)
      ()
  in
  let vec_t = time_of vec_work in
  let form = float_of_int c.coeff_updates *. coeff_t
             +. (float_of_int c.rhs_applies *. pa_t) in
  let prec = float_of_int c.vcycles *. vcycle_t in
  let solve =
    (float_of_int c.solve_applies *. pa_t)
    +. (float_of_int c.pcg_iters *. vec_t)
  in
  (form, prec, solve)
