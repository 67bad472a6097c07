(* Tests for the MFEM analog: quadrature, bases, meshes, the diffusion
   operator (full vs partial assembly), LOR preconditioning and the
   integrated nonlinear diffusion driver. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- quadrature --- *)

let test_gauss_legendre_exactness () =
  (* n-point Gauss integrates x^k exactly for k <= 2n-1 *)
  let n = 4 in
  let pts, wts = Mfem.Quadrature.gauss_legendre n in
  let integrate k =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. (wts.(i) *. (pts.(i) ** float_of_int k))
    done;
    !s
  in
  let exact k = if k mod 2 = 1 then 0.0 else 2.0 /. float_of_int (k + 1) in
  for k = 0 to (2 * n) - 1 do
    Alcotest.(check (float 1e-12)) (Fmt.str "x^%d" k) (exact k) (integrate k)
  done

let test_gauss_lobatto_endpoints_and_exactness () =
  let n = 5 in
  let pts, wts = Mfem.Quadrature.gauss_lobatto n in
  check_float "left endpoint" (-1.0) pts.(0);
  check_float "right endpoint" 1.0 pts.(n - 1);
  let integrate k =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. (wts.(i) *. (pts.(i) ** float_of_int k))
    done;
    !s
  in
  let exact k = if k mod 2 = 1 then 0.0 else 2.0 /. float_of_int (k + 1) in
  for k = 0 to (2 * n) - 3 do
    Alcotest.(check (float 1e-11)) (Fmt.str "x^%d" k) (exact k) (integrate k)
  done

let test_quadrature_points_sorted () =
  (* regression for the typed float sort in gauss_lobatto: node arrays
     come back strictly ascending, symmetric, and with positive weights
     at every order *)
  List.iter
    (fun (name, rule, lo) ->
      for n = lo to 12 do
        let pts, wts = rule n in
        for i = 1 to n - 1 do
          Alcotest.(check bool)
            (Fmt.str "%s n=%d ascending at %d" name n i)
            true
            (pts.(i - 1) < pts.(i))
        done;
        for i = 0 to n - 1 do
          Alcotest.(check (float 1e-10))
            (Fmt.str "%s n=%d symmetric at %d" name n i)
            (-.pts.(i))
            pts.(n - 1 - i);
          Alcotest.(check bool)
            (Fmt.str "%s n=%d weight %d positive" name n i)
            true (wts.(i) > 0.0)
        done
      done)
    [
      ("gauss", Mfem.Quadrature.gauss_legendre, 1);
      ("lobatto", Mfem.Quadrature.gauss_lobatto, 2);
    ]

let test_weights_sum_to_two () =
  for n = 2 to 8 do
    let _, wgl = Mfem.Quadrature.gauss_legendre n in
    let _, wlo = Mfem.Quadrature.gauss_lobatto n in
    Alcotest.(check (float 1e-12)) "GL weights" 2.0 (Icoe_util.Stats.sum wgl);
    Alcotest.(check (float 1e-12)) "GLL weights" 2.0 (Icoe_util.Stats.sum wlo)
  done

(* --- basis --- *)

let test_basis_partition_of_unity () =
  let b = Mfem.Basis.create 4 in
  for q = 0 to Mfem.Basis.nq b - 1 do
    let s = Icoe_util.Stats.sum b.Mfem.Basis.b.(q) in
    Alcotest.(check (float 1e-12)) "sum phi = 1" 1.0 s;
    let ds = Icoe_util.Stats.sum b.Mfem.Basis.g.(q) in
    Alcotest.(check (float 1e-10)) "sum phi' = 0" 0.0 ds
  done

let test_basis_collocated_kronecker () =
  let b = Mfem.Basis.create_collocated 3 in
  for q = 0 to 3 do
    for i = 0 to 3 do
      Alcotest.(check (float 1e-12)) "kronecker"
        (if q = i then 1.0 else 0.0)
        b.Mfem.Basis.b.(q).(i)
    done
  done

(* the tabulation rule has p+2 Gauss points, so it integrates x^(2p+2)
   exactly; a (p+1)-point rule stops at degree 2p+1 *)
let test_basis_gauss_rule_p_plus_2 () =
  for p = 1 to 5 do
    let b = Mfem.Basis.create p in
    Alcotest.(check int) "nq = p + 2" (p + 2) (Mfem.Basis.nq b);
    let d = float_of_int ((2 * p) + 2) in
    let integral = ref 0.0 in
    Array.iteri
      (fun q x -> integral := !integral +. (b.Mfem.Basis.qwts.(q) *. (x ** d)))
      b.Mfem.Basis.qpts;
    Alcotest.(check (float 1e-12)) "x^(2p+2) exact" (2.0 /. (d +. 1.0)) !integral
  done

let test_basis_reproduces_polynomials () =
  (* order-p basis interpolates x^p exactly at the quadrature points *)
  let p = 3 in
  let b = Mfem.Basis.create p in
  let coeffs = Array.map (fun x -> x ** 3.0) b.Mfem.Basis.nodes in
  for q = 0 to Mfem.Basis.nq b - 1 do
    let v = ref 0.0 and dv = ref 0.0 in
    for i = 0 to p do
      v := !v +. (b.Mfem.Basis.b.(q).(i) *. coeffs.(i));
      dv := !dv +. (b.Mfem.Basis.g.(q).(i) *. coeffs.(i))
    done;
    let x = b.Mfem.Basis.qpts.(q) in
    Alcotest.(check (float 1e-10)) "value" (x ** 3.0) !v;
    Alcotest.(check (float 1e-10)) "derivative" (3.0 *. (x ** 2.0)) !dv
  done

(* --- mesh --- *)

let test_mesh_dof_counts () =
  let m = Mfem.Mesh.create ~nx:4 ~ny:3 ~p:2 () in
  Alcotest.(check int) "elements" 12 (Mfem.Mesh.num_elements m);
  Alcotest.(check int) "dofs" (9 * 7) (Mfem.Mesh.num_dofs m)

let test_mesh_shared_dofs () =
  (* adjacent elements share the dofs on their common edge *)
  let m = Mfem.Mesh.create ~nx:2 ~ny:1 ~p:3 () in
  for j = 0 to 3 do
    Alcotest.(check int) "shared edge dof"
      (Mfem.Mesh.global_dof m ~ex:0 ~ey:0 ~i:3 ~j)
      (Mfem.Mesh.global_dof m ~ex:1 ~ey:0 ~i:0 ~j)
  done

let test_mesh_boundary () =
  let m = Mfem.Mesh.create ~nx:3 ~ny:3 ~p:1 () in
  let nb = List.length (Mfem.Mesh.boundary_dofs m) in
  (* 4x4 lattice: 12 boundary points *)
  Alcotest.(check int) "boundary count" 12 nb

let test_mesh_gather_scatter_roundtrip () =
  let m = Mfem.Mesh.create ~nx:2 ~ny:2 ~p:2 () in
  let u = Array.init (Mfem.Mesh.num_dofs m) float_of_int in
  let local = Array.make 9 0.0 in
  Mfem.Mesh.gather m u ~ex:1 ~ey:1 local;
  check_float "gathered corner"
    (float_of_int (Mfem.Mesh.global_dof m ~ex:1 ~ey:1 ~i:0 ~j:0))
    local.(0);
  let y = Array.make (Mfem.Mesh.num_dofs m) 0.0 in
  Mfem.Mesh.scatter_add m local ~ex:1 ~ey:1 y;
  check_float "scattered back" local.(4)
    y.(Mfem.Mesh.global_dof m ~ex:1 ~ey:1 ~i:1 ~j:1)

(* --- diffusion operator --- *)

let test_pa_matches_full_assembly () =
  (* the paper's PA rewrite is only valid because it computes the same
     operator: check K_pa u = K_fa u on random vectors for several p *)
  List.iter
    (fun p ->
      let mesh = Mfem.Mesh.create ~nx:3 ~ny:2 ~p () in
      let basis = Mfem.Basis.create p in
      let kappa ~x ~y = 1.0 +. (0.5 *. x) +. (0.25 *. y *. y) in
      let a = Mfem.Diffusion.assemble ~kappa mesh basis in
      let pa = Mfem.Diffusion.Pa.setup ~kappa mesh basis in
      let rng = Icoe_util.Rng.create (100 + p) in
      let n = Mfem.Mesh.num_dofs mesh in
      let u = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
      let y_fa = Linalg.Csr.spmv a u in
      let y_pa = Array.make n 0.0 in
      Mfem.Diffusion.Pa.apply pa u y_pa;
      Alcotest.(check bool)
        (Fmt.str "PA = FA at p=%d" p)
        true
        (Icoe_util.Stats.max_abs_diff y_fa y_pa < 1e-10))
    [ 1; 2; 3; 4 ]

let test_operator_kernel_is_laplacian () =
  (* constant function is in the kernel of the (unconstrained) operator *)
  let mesh = Mfem.Mesh.create ~nx:4 ~ny:4 ~p:3 () in
  let basis = Mfem.Basis.create 3 in
  let pa = Mfem.Diffusion.Pa.setup mesh basis in
  let n = Mfem.Mesh.num_dofs mesh in
  let u = Array.make n 1.0 in
  let y = Array.make n 0.0 in
  Mfem.Diffusion.Pa.apply pa u y;
  Alcotest.(check bool) "K 1 = 0" true (Linalg.Vec.nrm_inf y < 1e-10)

let test_operator_spd () =
  let mesh = Mfem.Mesh.create ~nx:3 ~ny:3 ~p:2 () in
  let basis = Mfem.Basis.create 2 in
  let pa = Mfem.Diffusion.Pa.setup mesh basis in
  let n = Mfem.Mesh.num_dofs mesh in
  let rng = Icoe_util.Rng.create 31 in
  for _ = 1 to 10 do
    let u = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
    let y = Array.make n 0.0 in
    Mfem.Diffusion.Pa.apply pa u y;
    Alcotest.(check bool) "u^T K u >= 0" true (Linalg.Vec.dot u y >= -1e-10)
  done

let test_poisson_convergence () =
  (* solve -u'' = f with exact solution sin(pi x) sin(pi y); higher p or
     finer mesh must reduce the error *)
  let solve n p =
    let mesh = Mfem.Mesh.create ~nx:n ~ny:n ~p () in
    let basis = Mfem.Basis.create p in
    let cb = Mfem.Basis.create_collocated p in
    let a0 = Mfem.Diffusion.assemble mesh basis in
    let bdofs = Mfem.Mesh.boundary_dofs mesh in
    let a = Mfem.Diffusion.eliminate_dirichlet a0 bdofs in
    let ndof = Mfem.Mesh.num_dofs mesh in
    (* rhs: f = 2 pi^2 sin(pi x) sin(pi y), via diagonal mass *)
    let mass = Mfem.Diffusion.mass_diagonal mesh cb in
    let isb = Array.make ndof false in
    List.iter (fun g -> isb.(g) <- true) bdofs;
    let b =
      Array.init ndof (fun g ->
          if isb.(g) then 0.0
          else
            let x, y = Mfem.Mesh.dof_coords mesh cb.Mfem.Basis.nodes g in
            2.0 *. Float.pi *. Float.pi
            *. sin (Float.pi *. x)
            *. sin (Float.pi *. y)
            *. mass.(g))
    in
    let r =
      Linalg.Krylov.cg ~tol:1e-12 ~max_iter:5000 ~op:(Linalg.Csr.spmv_into a) b
        (Array.make ndof 0.0)
    in
    (* max error at dofs *)
    let err = ref 0.0 in
    Array.iteri
      (fun g v ->
        let x, y = Mfem.Mesh.dof_coords mesh cb.Mfem.Basis.nodes g in
        let exact = sin (Float.pi *. x) *. sin (Float.pi *. y) in
        err := max !err (Float.abs (v -. exact)))
      r.Linalg.Krylov.x;
    !err
  in
  let e_coarse = solve 4 2 in
  let e_fine = solve 8 2 in
  let e_high = solve 4 4 in
  Alcotest.(check bool) "h-refinement converges" true (e_fine < e_coarse /. 4.0);
  Alcotest.(check bool) "p-refinement converges faster" true (e_high < e_coarse /. 8.0);
  Alcotest.(check bool) "errors are small" true (e_coarse < 0.01)

let test_pa_storage_beats_fa_at_high_order () =
  let mesh = Mfem.Mesh.create ~nx:8 ~ny:8 ~p:8 () in
  let basis = Mfem.Basis.create 8 in
  let pa = Mfem.Diffusion.Pa.setup mesh basis in
  let a = Mfem.Diffusion.assemble mesh basis in
  Alcotest.(check bool) "PA memory much smaller at p=8" true
    (Mfem.Diffusion.Pa.storage_bytes pa
    < Mfem.Diffusion.fa_storage_bytes a /. 4.0)

let test_mass_diagonal_integrates_volume () =
  let mesh = Mfem.Mesh.create ~lx:2.0 ~ly:3.0 ~nx:4 ~ny:4 ~p:3 () in
  let cb = Mfem.Basis.create_collocated 3 in
  let m = Mfem.Diffusion.mass_diagonal mesh cb in
  Alcotest.(check (float 1e-10)) "sum M = area" 6.0 (Icoe_util.Stats.sum m)

(* --- LOR --- *)

let test_lor_spectrally_close () =
  (* LOR matrix must be a good preconditioner for the high-order operator:
     PCG with LOR-AMG converges in few iterations *)
  let p = 4 in
  let mesh = Mfem.Mesh.create ~nx:6 ~ny:6 ~p () in
  let basis = Mfem.Basis.create p in
  let a0 = Mfem.Diffusion.assemble mesh basis in
  let bdofs = Mfem.Mesh.boundary_dofs mesh in
  let a = Mfem.Diffusion.eliminate_dirichlet a0 bdofs in
  let lor_mat = Mfem.Lor.assemble mesh basis in
  let amg = Hypre.Boomeramg.setup lor_mat in
  let n = Mfem.Mesh.num_dofs mesh in
  let isb = Array.make n false in
  List.iter (fun g -> isb.(g) <- true) bdofs;
  let rng = Icoe_util.Rng.create 41 in
  let b = Array.init n (fun g -> if isb.(g) then 0.0 else Icoe_util.Rng.uniform rng (-1.0) 1.0) in
  let r =
    Linalg.Krylov.cg ~tol:1e-8 ~max_iter:200 ~op:(Linalg.Csr.spmv_into a)
      ~precond:(Hypre.Boomeramg.precond amg) b (Array.make n 0.0)
  in
  Alcotest.(check bool) "LOR-AMG-PCG converges" true r.Linalg.Krylov.converged;
  Alcotest.(check bool) "in few iterations" true (r.Linalg.Krylov.iters < 60)

let test_lor_kernel () =
  (* constants with zero boundary are NOT in the LOR kernel (Dirichlet
     eliminated), but interior row sums vanish for interior-only rows *)
  let mesh = Mfem.Mesh.create ~nx:4 ~ny:4 ~p:2 () in
  let basis = Mfem.Basis.create 2 in
  let lor_mat = Mfem.Lor.assemble mesh basis in
  let ones = Array.make (Mfem.Mesh.num_dofs mesh) 1.0 in
  let y = Linalg.Csr.spmv lor_mat ones in
  (* a deep-interior dof: row sum 0 *)
  let g = Mfem.Mesh.global_dof mesh ~ex:2 ~ey:2 ~i:1 ~j:1 in
  Alcotest.(check (float 1e-10)) "interior row sum" 0.0 y.(g)

(* --- nonlinear diffusion driver --- *)

let test_nldiff_runs_and_decays () =
  let r = Mfem.Nldiff.run ~n:4 ~p:2 ~tf:0.005 () in
  (* diffusion with zero boundary: energy decays from the initial sine *)
  let maxu = Linalg.Vec.nrm_inf r.Mfem.Nldiff.u in
  Alcotest.(check bool) "decayed below initial max" true (maxu < 1.0);
  Alcotest.(check bool) "still positive" true (maxu > 0.1);
  let c = r.Mfem.Nldiff.counters in
  Alcotest.(check bool) "did PCG work" true (c.Mfem.Nldiff.pcg_iters > 0);
  Alcotest.(check bool) "used the preconditioner" true (c.Mfem.Nldiff.vcycles > 0);
  Alcotest.(check bool) "steps recorded" true
    (r.Mfem.Nldiff.ode_stats.Sundials.Cvode.nsteps > 0)

let test_nldiff_matches_linear_limit () =
  (* with kappa ~ 1 (small amplitude), solution ~ heat equation:
     u(t) = exp(-2 pi^2 t) sin sin; check the decay factor at the center *)
  let tf = 0.004 in
  let amp = 1e-3 in
  let r =
    Mfem.Nldiff.run ~n:6 ~p:3 ~tf ~rtol:1e-7 ~atol:1e-11
      ~u0:(fun ~x ~y -> amp *. sin (Float.pi *. x) *. sin (Float.pi *. y))
      ()
  in
  let mesh = Mfem.Mesh.create ~nx:6 ~ny:6 ~p:3 () in
  let cb = Mfem.Basis.create_collocated 3 in
  (* find the dof nearest the center *)
  let best = ref 0 and bestd = ref infinity in
  Array.iteri
    (fun g _ ->
      let x, y = Mfem.Mesh.dof_coords mesh cb.Mfem.Basis.nodes g in
      let d = ((x -. 0.5) ** 2.0) +. ((y -. 0.5) ** 2.0) in
      if d < !bestd then begin
        bestd := d;
        best := g
      end)
    r.Mfem.Nldiff.u;
  let expected = amp *. exp (-2.0 *. Float.pi *. Float.pi *. tf) in
  Alcotest.(check bool) "matches heat-equation decay" true
    (Float.abs (r.Mfem.Nldiff.u.(!best) -. expected) < 0.02 *. amp)

let test_nldiff_gpu_speedup_shape () =
  (* Table 4's shape: the same run priced on V100 must beat serial P9 by a
     large factor at 1M-scale; here we just assert the pricing machinery
     produces a sensible speedup > 1 on a small run *)
  let r = Mfem.Nldiff.run ~n:8 ~p:2 ~tf:0.002 () in
  let price ?scale d pol =
    let f, p, s = Mfem.Nldiff.price ?scale r ~device:d ~policy:pol in
    (f, p, s, f +. p +. s)
  in
  let f_c, p_c, s_c, _ = price Hwsim.Device.power9 Prog.Policy.Serial in
  Alcotest.(check bool) "phases positive" true
    (f_c > 0.0 && p_c > 0.0 && s_c > 0.0);
  (* at paper scale (~1M unknowns) the GPU wins decisively *)
  let scale = 1.0e6 /. float_of_int r.Mfem.Nldiff.ndof in
  let _, _, _, cpu = price ~scale Hwsim.Device.power9 Prog.Policy.Serial in
  let _, _, _, gpu = price ~scale Hwsim.Device.v100 Prog.Policy.Cuda in
  Alcotest.(check bool) "gpu faster at 1M dofs" true (gpu < cpu /. 5.0);
  (* at tiny scale the GPU's launch overhead loses: the paper's speedups
     shrink toward small problems (Table 4 rows) *)
  let _, _, _, cpu_s = price Hwsim.Device.power9 Prog.Policy.Serial in
  let _, _, _, gpu_s = price Hwsim.Device.v100 Prog.Policy.Cuda in
  Alcotest.(check bool) "small-problem speedup smaller" true
    (gpu_s /. cpu_s > gpu /. cpu)

let () =
  Alcotest.run "mfem"
    [
      ( "quadrature",
        [
          Alcotest.test_case "gauss exactness" `Quick test_gauss_legendre_exactness;
          Alcotest.test_case "lobatto" `Quick test_gauss_lobatto_endpoints_and_exactness;
          Alcotest.test_case "points sorted" `Quick test_quadrature_points_sorted;
          Alcotest.test_case "weights sum" `Quick test_weights_sum_to_two;
        ] );
      ( "basis",
        [
          Alcotest.test_case "partition of unity" `Quick test_basis_partition_of_unity;
          Alcotest.test_case "collocated kronecker" `Quick test_basis_collocated_kronecker;
          Alcotest.test_case "reproduces polynomials" `Quick test_basis_reproduces_polynomials;
          Alcotest.test_case "gauss rule of p+2 points" `Quick test_basis_gauss_rule_p_plus_2;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "dof counts" `Quick test_mesh_dof_counts;
          Alcotest.test_case "shared dofs" `Quick test_mesh_shared_dofs;
          Alcotest.test_case "boundary" `Quick test_mesh_boundary;
          Alcotest.test_case "gather/scatter" `Quick test_mesh_gather_scatter_roundtrip;
        ] );
      ( "diffusion",
        [
          Alcotest.test_case "pa = fa" `Quick test_pa_matches_full_assembly;
          Alcotest.test_case "kernel" `Quick test_operator_kernel_is_laplacian;
          Alcotest.test_case "spd" `Quick test_operator_spd;
          Alcotest.test_case "poisson convergence" `Quick test_poisson_convergence;
          Alcotest.test_case "pa storage" `Quick test_pa_storage_beats_fa_at_high_order;
          Alcotest.test_case "mass volume" `Quick test_mass_diagonal_integrates_volume;
        ] );
      ( "lor",
        [
          Alcotest.test_case "spectrally close" `Quick test_lor_spectrally_close;
          Alcotest.test_case "kernel" `Quick test_lor_kernel;
        ] );
      ( "nldiff",
        [
          Alcotest.test_case "runs and decays" `Quick test_nldiff_runs_and_decays;
          Alcotest.test_case "linear limit" `Quick test_nldiff_matches_linear_limit;
          Alcotest.test_case "gpu speedup shape" `Quick test_nldiff_gpu_speedup_shape;
        ] );
    ]
