(* Tests for the hypre analog: smoothers, coarsening, BoomerAMG, BoxLoops. *)

let check_float = Alcotest.(check (float 1e-9))

let laplacian_problem n =
  let a = Linalg.Csr.laplacian_2d n n in
  let rng = Icoe_util.Rng.create 21 in
  let x_true =
    Array.init (n * n) (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0)
  in
  let b = Linalg.Csr.spmv a x_true in
  (a, b, x_true)

let residual a b x =
  Linalg.Vec.nrm2 (Linalg.Vec.sub b (Linalg.Csr.spmv a x))
  /. max (Linalg.Vec.nrm2 b) 1e-300

(* --- smoothers --- *)

let test_smoothers_reduce_residual () =
  let a, b, _ = laplacian_problem 10 in
  let x = Array.make (Array.length b) 0.0 in
  let work = Array.make (Array.length b) 0.0 in
  let r0 = residual a b x in
  let l1 = Hypre.Smoother.l1_norms a in
  for _ = 1 to 10 do
    Hypre.Smoother.sweep a ~l1 b x work
  done;
  Alcotest.(check bool) "l1-jacobi reduces residual" true (residual a b x < r0)

(* --- coarsening --- *)

let test_strength_pattern () =
  let a = Linalg.Csr.laplacian_2d 6 6 in
  let s = Hypre.Coarsen.strength ~theta:0.25 a in
  (* every off-diagonal of the Laplacian is strong at theta=0.25 *)
  Alcotest.(check int) "all offdiag strong"
    (Linalg.Csr.nnz a - a.Linalg.Csr.m)
    (Linalg.Csr.nnz s)

let test_pmis_no_adjacent_coarse_under_strength () =
  let a = Linalg.Csr.laplacian_2d 8 8 in
  let s = Hypre.Coarsen.strength a in
  let rng = Icoe_util.Rng.create 5 in
  let cf = Hypre.Coarsen.pmis ~rng s in
  let nc =
    Array.fold_left
      (fun c x -> if x = Hypre.Coarsen.Coarse then c + 1 else c)
      0 cf
  in
  Alcotest.(check bool) "some coarse" true (nc > 0);
  Alcotest.(check bool) "coarsens meaningfully" true (nc < 64);
  (* every fine point must have at least one strong coarse neighbour
     (the PMIS F-assignment rule guarantees it on this mesh) *)
  Array.iteri
    (fun i st ->
      if st = Hypre.Coarsen.Fine then begin
        let has = ref false in
        for k = s.Linalg.Csr.row_ptr.(i) to s.Linalg.Csr.row_ptr.(i + 1) - 1 do
          if cf.(s.Linalg.Csr.col_idx.(k)) = Hypre.Coarsen.Coarse then has := true
        done;
        Alcotest.(check bool) "fine has coarse neighbour" true !has
      end)
    cf

let test_interpolation_partition_of_unity () =
  (* For the constant-stencil Laplacian, each interpolation row of a fine
     point sums to (sum neg offdiag)/a_ii = 1 on interior points. *)
  let a = Linalg.Csr.laplacian_2d 8 8 in
  let s = Hypre.Coarsen.strength a in
  let rng = Icoe_util.Rng.create 5 in
  let cf = Hypre.Coarsen.pmis ~rng s in
  let p, _ = Hypre.Coarsen.direct_interpolation a s cf in
  let ones = Array.make p.Linalg.Csr.n 1.0 in
  let rowsums = Linalg.Csr.spmv p ones in
  Array.iteri
    (fun i st ->
      match st with
      | Hypre.Coarsen.Coarse -> check_float "coarse row injects" 1.0 rowsums.(i)
      | Hypre.Coarsen.Fine ->
          (* interior fine rows sum to 1; boundary rows may sum below 1
             because a_ii includes the Dirichlet wall *)
          Alcotest.(check bool) "fine row sum in (0,1]" true
            (rowsums.(i) > 0.0 && rowsums.(i) <= 1.0 +. 1e-12))
    cf

(* --- BoomerAMG --- *)

(* V-cycles from zero until the relative residual reaches [tol]:
   (x, cycles, residual) *)
let cycle_to amg a b ~tol =
  let x = Array.make (Array.length b) 0.0 in
  let res = ref (residual a b x) and cycles = ref 0 in
  while !res > tol && !cycles < 100 do
    Hypre.Boomeramg.v_cycle amg b x;
    res := residual a b x;
    incr cycles
  done;
  (x, !cycles, !res)

let test_amg_solves_2d () =
  let a, b, x_true = laplacian_problem 16 in
  let amg = Hypre.Boomeramg.setup a in
  let vc0 =
    Option.value ~default:0.0 (Icoe_obs.Metrics.value "amg_vcycles_total")
  in
  let x, cycles, res = cycle_to amg a b ~tol:1e-10 in
  Alcotest.(check bool) "converged" true (res < 1e-10);
  Alcotest.(check bool) "few cycles" true (cycles < 60);
  Alcotest.(check bool) "accurate" true
    (Icoe_util.Stats.max_abs_diff x x_true < 1e-7);
  (* the registry counter must advance by exactly one per V-cycle *)
  Alcotest.(check (float 1e-9)) "registry counted the V-cycles"
    (float_of_int cycles)
    (Option.value ~default:0.0 (Icoe_obs.Metrics.value "amg_vcycles_total")
    -. vc0)

let test_amg_solves_3d () =
  let a = Linalg.Csr.laplacian_3d 8 8 8 in
  let rng = Icoe_util.Rng.create 22 in
  let x_true = Array.init 512 (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
  let b = Linalg.Csr.spmv a x_true in
  let amg = Hypre.Boomeramg.setup a in
  let x, _, res = cycle_to amg a b ~tol:1e-10 in
  Alcotest.(check bool) "3d converged" true (res < 1e-10);
  Alcotest.(check bool) "3d accurate" true
    (Icoe_util.Stats.max_abs_diff x x_true < 1e-7)

let test_amg_hierarchy_shrinks () =
  let a = Linalg.Csr.laplacian_2d 20 20 in
  let amg = Hypre.Boomeramg.setup a in
  Alcotest.(check bool) "multiple levels" true (Hypre.Boomeramg.num_levels amg >= 3);
  let sizes =
    Array.map (fun l -> l.Hypre.Boomeramg.a.Linalg.Csr.m) amg.Hypre.Boomeramg.levels
  in
  for i = 0 to Array.length sizes - 2 do
    Alcotest.(check bool) "levels shrink" true (sizes.(i + 1) < sizes.(i))
  done;
  let oc = Hypre.Boomeramg.operator_complexity amg in
  Alcotest.(check bool) "operator complexity sane" true (oc >= 1.0 && oc < 3.5)

let test_amg_pcg_beats_plain_cg () =
  let a, b, _ = laplacian_problem 24 in
  let x0 = Array.make (Array.length b) 0.0 in
  let amg = Hypre.Boomeramg.setup a in
  let r_amg = Hypre.Boomeramg.pcg_solve ~tol:1e-10 amg b x0 in
  let r_cg = Linalg.Krylov.cg ~tol:1e-10 ~max_iter:5000 ~op:(Linalg.Csr.spmv_into a) b x0 in
  Alcotest.(check bool) "amg-pcg converged" true r_amg.Linalg.Krylov.converged;
  Alcotest.(check bool) "amg-pcg needs fewer iterations" true
    (r_amg.Linalg.Krylov.iters * 3 < r_cg.Linalg.Krylov.iters)

let test_vcycle_work_counts () =
  let a = Linalg.Csr.laplacian_2d 16 16 in
  let amg = Hypre.Boomeramg.setup a in
  let w = Hypre.Boomeramg.v_cycle_work amg in
  Alcotest.(check bool) "positive flops" true (w.Hwsim.Kernel.flops > 0.0);
  Alcotest.(check bool) "positive bytes" true (w.Hwsim.Kernel.bytes > 0.0);
  Alcotest.(check bool) "many launches (spmv-shaped port)" true
    (w.Hwsim.Kernel.launches > 5)

(* --- BoxLoops --- *)

let mk_ctx policy =
  let clock = Hwsim.Clock.create () in
  (Prog.Exec.make_ctx ~policy ~device:Hwsim.Device.v100 ~clock, clock)

let test_boxloop_sweeps_box () =
  (* pricing one sweep of a 3 x 2 level is pricing 6-element loops, to
     the bit: smooth and copy as loops, the two norms as reductions *)
  let ctx, clock = mk_ctx Prog.Policy.Cuda in
  let lvl = Hypre.Pfmg.create_level 3 2 in
  lvl.Hypre.Pfmg.b.(Hypre.Pfmg.idx lvl 2 1) <- 1.0;
  ignore (Hypre.Pfmg.jacobi ~max_sweeps:1 ctx lvl);
  let ref_ctx, ref_clock = mk_ctx Prog.Policy.Cuda in
  let norm () =
    Prog.Exec.charge_reduce ref_ctx ~phase:"struct-residual" ~n:6 ~flops_per:7.0
      ~bytes_per:48.0
  in
  norm ();
  Prog.Exec.charge ref_ctx ~phase:"struct-smooth" ~n:6 ~flops_per:8.0 ~bytes_per:48.0;
  Prog.Exec.charge ref_ctx ~phase:"struct-copy" ~n:6 ~flops_per:0.0 ~bytes_per:16.0;
  norm ();
  List.iter
    (fun phase ->
      Alcotest.(check int64) (phase ^ ", 6 cells")
        (Int64.bits_of_float (Hwsim.Clock.phase ref_clock phase))
        (Int64.bits_of_float (Hwsim.Clock.phase clock phase)))
    [ "struct-residual"; "struct-smooth"; "struct-copy" ];
  Alcotest.(check int64) "total"
    (Int64.bits_of_float (Hwsim.Clock.total ref_clock))
    (Int64.bits_of_float (Hwsim.Clock.total clock))

let test_level_layout () =
  (* a 5 x 3 interior sits inside walls at stride 7; Jacobi leaves the
     walls at zero, and a source on the i midline gives a u mirrored
     about it to the bit *)
  let ctx, _ = mk_ctx Prog.Policy.Cuda in
  let lvl = Hypre.Pfmg.create_level 5 3 in
  Alcotest.(check int) "nx" 5 lvl.Hypre.Pfmg.nx;
  Alcotest.(check int) "ny" 3 lvl.Hypre.Pfmg.ny;
  List.iter
    (fun a -> Alcotest.(check int) "7 x 5 cells" 35 (Array.length a))
    [ lvl.Hypre.Pfmg.u; lvl.Hypre.Pfmg.b; lvl.Hypre.Pfmg.r ];
  Alcotest.(check int) "first interior cell" 8 (Hypre.Pfmg.idx lvl 1 1);
  Alcotest.(check int) "last interior cell" 26 (Hypre.Pfmg.idx lvl 5 3);
  lvl.Hypre.Pfmg.b.(Hypre.Pfmg.idx lvl 3 2) <- 1.0;
  ignore (Hypre.Pfmg.jacobi ~max_sweeps:25 ctx lvl);
  let u i j = lvl.Hypre.Pfmg.u.(Hypre.Pfmg.idx lvl i j) in
  for j = 0 to 4 do
    for i = 0 to 6 do
      let wall = i = 0 || i = 6 || j = 0 || j = 4 in
      if wall then Alcotest.(check (float 0.0)) "wall stays zero" 0.0 (u i j)
      else begin
        Alcotest.(check bool) "interior positive" true (u i j > 0.0);
        Alcotest.(check int64) "mirrored about i = 3"
          (Int64.bits_of_float (u i j))
          (Int64.bits_of_float (u (6 - i) j))
      end
    done
  done

(* one NaN source cell, followed by finite ones: the max-norm must keep
   it, and both solvers must stop on it rather than read it as converged
   (Jacobi) or run on to the cycle cap (PFMG) *)
let test_nan_residual_raises () =
  let expect fn f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception on a NaN residual" fn
    | exception Invalid_argument msg ->
        Alcotest.(check bool) (msg ^ " names " ^ fn) true
          (String.starts_with ~prefix:fn msg)
  in
  let ctx, _ = mk_ctx Prog.Policy.Cuda in
  let lvl = Hypre.Pfmg.create_level 8 8 in
  lvl.Hypre.Pfmg.b.(Hypre.Pfmg.idx lvl 2 2) <- nan;
  (* no sweep spreads the NaN: only the norm's fold can see it *)
  expect "Pfmg.jacobi" (fun () -> Hypre.Pfmg.jacobi ~max_sweeps:0 ctx lvl);
  expect "Pfmg.jacobi" (fun () -> Hypre.Pfmg.jacobi ctx lvl);
  let t = Hypre.Pfmg.create 7 in
  let f = Hypre.Pfmg.finest t in
  f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f 2 2) <- nan;
  expect "Pfmg.solve" (fun () -> Hypre.Pfmg.solve ctx t)

(* the NaN may sit in any cell: before or after finite ones, on an edge
   or a corner, the max-norm keeps it and Jacobi stops on it *)
let test_nan_residual_any_cell () =
  let ctx, _ = mk_ctx Prog.Policy.Cuda in
  let lvl = Hypre.Pfmg.create_level 5 4 in
  for j = 1 to 4 do
    for i = 1 to 5 do
      Array.fill lvl.Hypre.Pfmg.b 0 (Array.length lvl.Hypre.Pfmg.b) 1.0;
      lvl.Hypre.Pfmg.b.(Hypre.Pfmg.idx lvl i j) <- nan;
      match Hypre.Pfmg.jacobi ~max_sweeps:0 ctx lvl with
      | _ -> Alcotest.failf "NaN at (%d, %d) read as a finite norm" i j
      | exception Invalid_argument _ -> ()
    done
  done;
  Array.fill lvl.Hypre.Pfmg.b 0 (Array.length lvl.Hypre.Pfmg.b) 1.0;
  let sweeps, r = Hypre.Pfmg.jacobi ~max_sweeps:0 ctx lvl in
  Alcotest.(check int) "no sweeps" 0 sweeps;
  Alcotest.(check (float 0.0)) "finite norm relative to itself" 1.0 r

let test_struct_solver_converges () =
  let ctx, _ = mk_ctx Prog.Policy.Cuda in
  let s = Hypre.Pfmg.create_level 18 18 in
  (* manufactured solution: u = 0 on boundary, b = point source *)
  s.Hypre.Pfmg.b.(Hypre.Pfmg.idx s 10 10) <- 1.0;
  let sweeps, rel = Hypre.Pfmg.jacobi ~tol:1e-8 ctx s in
  Alcotest.(check bool) "converged" true (rel < 1e-8);
  Alcotest.(check bool) "took some sweeps" true (sweeps > 10);
  (* solution positive at the source, decaying away *)
  let u = s.Hypre.Pfmg.u in
  Alcotest.(check bool) "positive at source" true (u.(Hypre.Pfmg.idx s 10 10) > 0.0);
  Alcotest.(check bool) "decays" true
    (u.(Hypre.Pfmg.idx s 10 10) > u.(Hypre.Pfmg.idx s 3 3))

let test_struct_solver_backend_retarget () =
  (* The BoxLoop port story: same numerics, different backends, different
     simulated cost. *)
  let run policy =
    let ctx, clock = mk_ctx policy in
    let s = Hypre.Pfmg.create_level 14 14 in
    s.Hypre.Pfmg.b.(Hypre.Pfmg.idx s 8 8) <- 1.0;
    let _, rel = Hypre.Pfmg.jacobi ~tol:1e-8 ctx s in
    (Array.copy s.Hypre.Pfmg.u, Hwsim.Clock.total clock, rel)
  in
  let u_cuda, t_cuda, r1 = run Prog.Policy.Cuda in
  let u_raja, t_raja, r2 = run Prog.Policy.Raja_cuda in
  Alcotest.(check bool) "both converge" true (r1 < 1e-8 && r2 < 1e-8);
  Alcotest.(check bool) "identical numerics" true
    (Icoe_util.Stats.max_abs_diff u_cuda u_raja < 1e-15);
  Alcotest.(check bool) "different simulated cost" true (t_cuda <> t_raja)

(* --- PFMG (structured geometric multigrid) --- *)

let test_pfmg_converges_fast () =
  let ctx, _ = mk_ctx Prog.Policy.Cuda in
  let t = Hypre.Pfmg.create 63 in
  let f = Hypre.Pfmg.finest t in
  f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f 32 32) <- 1.0;
  let cycles, rel = Hypre.Pfmg.solve ~tol:1e-10 ctx t in
  Alcotest.(check bool) "converged" true (rel < 1e-10);
  (* multigrid signature: O(10) cycles regardless of size *)
  Alcotest.(check bool) (Fmt.str "%d cycles < 15" cycles) true (cycles < 15)

let test_pfmg_grid_independent () =
  (* V-cycle count must not grow with the grid (the whole point of MG,
     and why the paper's structured solvers scale) *)
  let cycles n =
    let ctx, _ = mk_ctx Prog.Policy.Cuda in
    let t = Hypre.Pfmg.create n in
    let f = Hypre.Pfmg.finest t in
    f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f (n / 2) (n / 2)) <- 1.0;
    fst (Hypre.Pfmg.solve ~tol:1e-8 ctx t)
  in
  let c31 = cycles 31 and c127 = cycles 127 in
  Alcotest.(check bool)
    (Fmt.str "cycles %d (31) vs %d (127)" c31 c127)
    true
    (c127 <= c31 + 3)

let test_pfmg_matches_struct_solver () =
  (* same Poisson problem: PFMG and Jacobi on one level agree *)
  let ctx, _ = mk_ctx Prog.Policy.Cuda in
  let n = 15 in
  let t = Hypre.Pfmg.create n in
  let f = Hypre.Pfmg.finest t in
  f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f 8 8) <- 1.0;
  ignore (Hypre.Pfmg.solve ~tol:1e-12 ctx t);
  let s = Hypre.Pfmg.create_level n n in
  s.Hypre.Pfmg.b.(Hypre.Pfmg.idx s 8 8) <- 1.0;
  ignore (Hypre.Pfmg.jacobi ~tol:1e-12 ~max_sweeps:20000 ctx s);
  let diff = ref 0.0 in
  for j = 1 to n do
    for i = 1 to n do
      let a = f.Hypre.Pfmg.u.(Hypre.Pfmg.idx f i j) in
      let b = s.Hypre.Pfmg.u.(Hypre.Pfmg.idx s i j) in
      diff := max !diff (Float.abs (a -. b))
    done
  done;
  Alcotest.(check bool) (Fmt.str "solutions agree: %.2e" !diff) true (!diff < 1e-8)

let test_pfmg_beats_jacobi_cost () =
  (* the reason hypre has multigrid: far less simulated work than plain
     Jacobi iteration on the same problem *)
  let run_pfmg () =
    let ctx, clock = mk_ctx Prog.Policy.Cuda in
    let t = Hypre.Pfmg.create 63 in
    let f = Hypre.Pfmg.finest t in
    f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f 32 32) <- 1.0;
    ignore (Hypre.Pfmg.solve ~tol:1e-8 ctx t);
    Hwsim.Clock.total clock
  in
  let run_jacobi () =
    let ctx, clock = mk_ctx Prog.Policy.Cuda in
    let s = Hypre.Pfmg.create_level 63 63 in
    s.Hypre.Pfmg.b.(Hypre.Pfmg.idx s 32 32) <- 1.0;
    ignore (Hypre.Pfmg.jacobi ~tol:1e-8 ~max_sweeps:50000 ctx s);
    Hwsim.Clock.total clock
  in
  Alcotest.(check bool) "pfmg much cheaper" true (run_pfmg () *. 5.0 < run_jacobi ())

(* The four backends of the [hypre] harness's BoxLoop table. *)
let harness_ctx k =
  let policy =
    [| Prog.Policy.Openmp 22; Prog.Policy.Omp_target; Prog.Policy.Raja_cuda;
       Prog.Policy.Cuda |].(k)
  in
  let device =
    if Prog.Policy.side policy = Prog.Policy.Host then Hwsim.Device.power9
    else Hwsim.Device.v100
  in
  let clock = Hwsim.Clock.create () in
  (Prog.Exec.make_ctx ~policy ~device ~clock, clock)

(* The [hypre] report's BoxLoop table, pinned here as well as by the
   report digest: the 62^2 Jacobi solve (a 64^2 grid with its walls)
   under each backend. None of the four converges to the 1e-6 tolerance;
   each stops at the 5 000-sweep cap, so the table compares the price of
   5 000 sweeps. *)
let test_hypre_table_pinned () =
  List.iteri
    (fun k ms ->
      let ctx, clock = harness_ctx k in
      let lvl = Hypre.Pfmg.create_level 62 62 in
      lvl.Hypre.Pfmg.b.(Hypre.Pfmg.idx lvl 32 32) <- 1.0;
      let sweeps, rel = Hypre.Pfmg.jacobi ~tol:1e-6 ctx lvl in
      Alcotest.(check int) "stops at the cap" 5000 sweeps;
      Alcotest.(check string) "relative residual" "6.96e-06" (Printf.sprintf "%.2e" rel);
      Alcotest.(check string) "simulated ms" ms
        (Printf.sprintf "%.2f" (Hwsim.Clock.total clock *. 1e3)))
    [ "34.47"; "120.37"; "98.50"; "76.10" ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_array a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_clock c c' =
  same_bits (Hwsim.Clock.total c) (Hwsim.Clock.total c')
  &&
  let ph = Hwsim.Clock.breakdown c and ph' = Hwsim.Clock.breakdown c' in
  List.length ph = List.length ph'
  && List.for_all2 (fun (n, t) (n', t') -> n = n' && same_bits t t') ph ph'

let prop_boxloop_matches_oracle =
  QCheck.Test.make ~name:"row loops match closure oracle" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let policy = Icoe_util.Rng.int rng 4 in
      (* Jacobi: any interior from 1 x 1 up (a 3 x 3 grid with its
         walls), non-square included *)
      let nx = 1 + Icoe_util.Rng.int rng 38 and ny = 1 + Icoe_util.Rng.int rng 38 in
      let si = 1 + Icoe_util.Rng.int rng nx and sj = 1 + Icoe_util.Rng.int rng ny in
      let max_sweeps = Icoe_util.Rng.int rng 400 in
      let run solve =
        let ctx, clock = harness_ctx policy in
        let s = Hypre.Pfmg.create_level nx ny in
        s.Hypre.Pfmg.b.(Hypre.Pfmg.idx s si sj) <- 1.0;
        let sweeps, rel = solve ctx s in
        (s.Hypre.Pfmg.u, sweeps, rel, clock)
      in
      let u, sweeps, rel, clock = run (Hypre.Pfmg.jacobi ~tol:1e-6 ~max_sweeps) in
      let u', sweeps', rel', clock' = run (Ref_boxloop.Struct_solver.solve ~tol:1e-6 ~max_sweeps) in
      let struct_ok =
        same_array u u' && sweeps = sweeps' && same_bits rel rel' && same_clock clock clock'
      in
      (* Pfmg: every hierarchy the 2^k - 1 sides allow up to 31 *)
      let n = [| 1; 3; 7; 15; 31 |].(Icoe_util.Rng.int rng 5) in
      let pi = 1 + Icoe_util.Rng.int rng n and pj = 1 + Icoe_util.Rng.int rng n in
      let max_cycles = Icoe_util.Rng.int rng 12 in
      let run solve =
        let ctx, clock = harness_ctx policy in
        let t = Hypre.Pfmg.create n in
        let f = Hypre.Pfmg.finest t in
        f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f pi pj) <- 1.0;
        let cycles, rel = solve ctx t in
        (t, cycles, rel, clock)
      in
      let t, cycles, rel, clock = run (Hypre.Pfmg.solve ~tol:1e-10 ~max_cycles) in
      let t', cycles', rel', clock' = run (Ref_boxloop.Pfmg.solve ~tol:1e-10 ~max_cycles) in
      let pfmg_ok =
        Array.for_all2
          (fun l l' -> same_array l.Hypre.Pfmg.u l'.Hypre.Pfmg.u)
          t.Hypre.Pfmg.levels t'.Hypre.Pfmg.levels
        && cycles = cycles' && same_bits rel rel' && same_clock clock clock'
      in
      struct_ok && pfmg_ok)

let prop_amg_random_spd =
  QCheck.Test.make ~name:"AMG-PCG solves random sizes of 2D Laplacian" ~count:5
    QCheck.(int_range 6 20)
    (fun n ->
      let a = Linalg.Csr.laplacian_2d n n in
      let b = Array.make (n * n) 1.0 in
      let amg = Hypre.Boomeramg.setup a in
      let r = Hypre.Boomeramg.pcg_solve ~tol:1e-8 amg b (Array.make (n * n) 0.0) in
      r.Linalg.Krylov.converged)

(* The in-place V-cycle against the allocating [Ref_amg] cycle, bit for
   bit: random 2D/3D Laplacians (from one cell, so a one-level
   hierarchy, up to several levels), then 1-5 consecutive cycles on the
   same hierarchy, each with a fresh right-hand side and, every other
   cycle, through [precond] — a workspace left stale by one cycle would
   show in the next *)
let prop_vcycle_matches_reference =
  QCheck.Test.make ~name:"in-place v_cycle bit-identical to the reference"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let dim k = 1 + Icoe_util.Rng.int rng k in
      let a =
        if Icoe_util.Rng.float rng < 0.5 then Linalg.Csr.laplacian_2d (dim 32) (dim 32)
        else Linalg.Csr.laplacian_3d (dim 10) (dim 10) (dim 10)
      in
      let n = a.Linalg.Csr.m in
      let amg = Hypre.Boomeramg.setup a in
      let lu = Ref_amg.coarse_lu amg in
      let bits = Array.map Int64.bits_of_float in
      List.for_all
        (fun k ->
          let b = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
          if k mod 2 = 0 then begin
            let x0 = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
            let x = Array.copy x0 and x' = Array.copy x0 in
            Hypre.Boomeramg.v_cycle amg b x;
            Ref_amg.v_cycle amg lu b x';
            bits x = bits x'
          end
          else begin
            let z = Array.make n nan in
            Hypre.Boomeramg.precond amg b z;
            bits z = bits (Ref_amg.precond amg lu b)
          end)
        (List.init (1 + Icoe_util.Rng.int rng 5) Fun.id))

let () =
  Alcotest.run "hypre"
    [
      ( "smoother",
        [
          Alcotest.test_case "all reduce residual" `Quick test_smoothers_reduce_residual;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "strength pattern" `Quick test_strength_pattern;
          Alcotest.test_case "pmis" `Quick test_pmis_no_adjacent_coarse_under_strength;
          Alcotest.test_case "interpolation unity" `Quick test_interpolation_partition_of_unity;
        ] );
      ( "boomeramg",
        [
          Alcotest.test_case "solves 2d" `Quick test_amg_solves_2d;
          Alcotest.test_case "solves 3d" `Quick test_amg_solves_3d;
          Alcotest.test_case "hierarchy shrinks" `Quick test_amg_hierarchy_shrinks;
          Alcotest.test_case "pcg beats cg" `Quick test_amg_pcg_beats_plain_cg;
          Alcotest.test_case "vcycle work" `Quick test_vcycle_work_counts;
          QCheck_alcotest.to_alcotest prop_amg_random_spd;
          QCheck_alcotest.to_alcotest prop_vcycle_matches_reference;
        ] );
      ( "pfmg",
        [
          Alcotest.test_case "converges fast" `Quick test_pfmg_converges_fast;
          Alcotest.test_case "grid independent" `Quick test_pfmg_grid_independent;
          Alcotest.test_case "matches struct solver" `Quick test_pfmg_matches_struct_solver;
          Alcotest.test_case "beats jacobi" `Quick test_pfmg_beats_jacobi_cost;
        ] );
      ( "boxloop",
        [
          Alcotest.test_case "sweeps box" `Quick test_boxloop_sweeps_box;
          Alcotest.test_case "struct solver" `Quick test_struct_solver_converges;
          Alcotest.test_case "backend retarget" `Quick test_struct_solver_backend_retarget;
          QCheck_alcotest.to_alcotest prop_boxloop_matches_oracle;
          Alcotest.test_case "hypre table pinned" `Quick test_hypre_table_pinned;
          Alcotest.test_case "level layout" `Quick test_level_layout;
          Alcotest.test_case "nan residual raises" `Quick test_nan_residual_raises;
          Alcotest.test_case "nan residual any cell" `Quick test_nan_residual_any_cell;
        ] );
    ]
