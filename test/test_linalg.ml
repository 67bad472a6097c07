(* Tests for vectors, dense LU, CSR, and Krylov solvers. *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))

(* --- Vec --- *)

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] in
  let y = [| 4.0; 5.0; 6.0 |] in
  check_float "dot" 32.0 (Vec.dot x y);
  check_float "nrm2" (sqrt 14.0) (Vec.nrm2 x);
  check_float "nrm_inf" 3.0 (Vec.nrm_inf x);
  let z = Vec.sub y x in
  Alcotest.(check (array (float 1e-12))) "sub" [| 3.0; 3.0; 3.0 |] z;
  let y2 = Array.copy y in
  Vec.axpy 2.0 x y2;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.0; 9.0; 12.0 |] y2;
  let y3 = Array.copy y in
  Vec.xpby x 2.0 y3;
  Alcotest.(check (array (float 1e-12))) "xpby" [| 9.0; 12.0; 15.0 |] y3

let test_wrms () =
  let x = [| 3.0; 4.0 |] and w = [| 1.0; 1.0 |] in
  check_float "wrms" (sqrt 12.5) (Vec.wrms x w)

(* --- Dense --- *)

let test_lu_solves_random_system () =
  let rng = Icoe_util.Rng.create 11 in
  let n = 25 in
  let a = Dense.init n n (fun i j ->
      if i = j then 10.0 +. Icoe_util.Rng.float rng
      else Icoe_util.Rng.uniform rng (-1.0) 1.0)
  in
  let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
  let b = Dense.matvec a x_true in
  let x = Dense.solve a b in
  Alcotest.(check bool) "solution accurate" true
    (Icoe_util.Stats.max_abs_diff x x_true < 1e-9)

let test_lu_pivoting () =
  (* system that requires pivoting: zero in the (0,0) position *)
  let a = Dense.init 2 2 (fun i j ->
      match (i, j) with 0, 0 -> 0.0 | 0, 1 -> 1.0 | 1, 0 -> 1.0 | _ -> 1.0)
  in
  let x = Dense.solve a [| 2.0; 3.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_lu_singular_raises () =
  let a = Dense.init 3 3 (fun _ _ -> 1.0) in
  Alcotest.check_raises "singular" (Dense.Singular 1) (fun () ->
      ignore (Dense.lu_factor a))

let test_matmul_identity () =
  let rng = Icoe_util.Rng.create 12 in
  let a = Dense.init 6 6 (fun _ _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
  let i6 = Dense.identity 6 in
  let ai = Dense.matmul a i6 in
  Alcotest.(check bool) "A*I = A" true
    (Icoe_util.Stats.max_abs_diff ai.Dense.a a.Dense.a < 1e-14)

let test_transpose_involution () =
  let a = Dense.init 3 5 (fun i j -> float_of_int ((i * 5) + j)) in
  let att = Dense.transpose (Dense.transpose a) in
  Alcotest.(check bool) "(A^T)^T = A" true (att.Dense.a = a.Dense.a)

(* --- CSR --- *)

let test_csr_spmv_matches_dense () =
  let rng = Icoe_util.Rng.create 13 in
  let d = Dense.init 8 6 (fun _ _ ->
      if Icoe_util.Rng.float rng < 0.4 then Icoe_util.Rng.uniform rng (-2.0) 2.0
      else 0.0)
  in
  let s = Csr.of_dense d in
  let x = Array.init 6 (fun i -> float_of_int i -. 2.5) in
  let yd = Dense.matvec d x and ys = Csr.spmv s x in
  Alcotest.(check bool) "spmv matches dense" true
    (Icoe_util.Stats.max_abs_diff yd ys < 1e-13)

(* the matrix sizes the harnesses build (596 to 1 728 rows), row-scaled
   so no two rows agree: one serial loop must write every row of [y]
   (it starts as NaN), match the dense product, and agree bit for bit
   with the [spmv_seq_into] entry *)
let test_csr_spmv_harness_sizes () =
  let rng = Icoe_util.Rng.create 29 in
  List.iter
    (fun (name, a) ->
      let n = a.Csr.m in
      let d = Array.init n (fun _ -> Icoe_util.Rng.uniform rng 0.1 2.0) in
      let a = Csr.scale_rows a d in
      let x = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-5.0) 5.0) in
      let y = Array.make n nan and y_seq = Array.make n nan in
      Csr.spmv_into a x y;
      Csr.spmv_seq_into a x y_seq;
      let yd = Dense.matvec (Csr.to_dense a) x in
      Alcotest.(check bool) (name ^ " matches dense") true
        (Icoe_util.Stats.max_abs_diff yd y < 1e-12);
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float y_seq.(i) then
            Alcotest.failf "%s: spmv_seq_into differs at row %d" name i)
        y)
    [
      ("25x25", Csr.laplacian_2d 25 25);
      ("31x31", Csr.laplacian_2d 31 31);
      ("12x12x12", Csr.laplacian_3d 12 12 12);
    ]

let test_csr_triplets_duplicates_summed () =
  let s = Csr.of_triplets ~m:2 ~n:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, 5.0) ] in
  let d = Csr.to_dense s in
  check_float "summed" 3.0 (Dense.get d 0 0);
  check_float "single" 5.0 (Dense.get d 1 1);
  Alcotest.(check int) "nnz" 2 (Csr.nnz s)

let test_csr_triplets_column_order () =
  (* regression for the typed column sort in of_triplets: the row comes
     back in column order even when the float payloads would mislead a
     polymorphic tuple compare (NaN, infinities, signed zeros) *)
  let nan = Float.nan in
  let s =
    Csr.of_triplets ~m:1 ~n:5
      [ (0, 3, nan); (0, 1, infinity); (0, 4, -0.0); (0, 0, -1.0); (0, 2, 0.5) ]
  in
  Alcotest.(check (array int)) "columns sorted" [| 0; 1; 2; 3; 4 |] s.Csr.col_idx;
  Alcotest.(check bool) "NaN payload kept at its column" true
    (Float.is_nan (Icoe_util.Fbuf.get s.Csr.values 3));
  check_float "payload follows its column" 0.5 (Icoe_util.Fbuf.get s.Csr.values 2);
  (* duplicates on the same column still collapse into one summed entry *)
  let d =
    Csr.of_triplets ~m:1 ~n:3 [ (0, 2, 4.0); (0, 0, 1.0); (0, 2, -1.5) ]
  in
  Alcotest.(check int) "nnz after collapse" 2 (Csr.nnz d);
  check_float "dup sum" 2.5 (Dense.get (Csr.to_dense d) 0 2)

let test_csr_transpose () =
  let s = Csr.of_triplets ~m:2 ~n:3 [ (0, 1, 2.0); (1, 0, 3.0); (1, 2, 4.0) ] in
  let st = Csr.transpose s in
  let d = Csr.to_dense st in
  check_float "t(0,1)" 3.0 (Dense.get d 0 1);
  check_float "t(1,0)" 2.0 (Dense.get d 1 0);
  check_float "t(2,1)" 4.0 (Dense.get d 2 1)

let test_csr_matmul_matches_dense () =
  let rng = Icoe_util.Rng.create 14 in
  let da = Dense.init 7 5 (fun _ _ ->
      if Icoe_util.Rng.float rng < 0.5 then Icoe_util.Rng.uniform rng (-1.0) 1.0
      else 0.0)
  in
  let db = Dense.init 5 6 (fun _ _ ->
      if Icoe_util.Rng.float rng < 0.5 then Icoe_util.Rng.uniform rng (-1.0) 1.0
      else 0.0)
  in
  let c_dense = Dense.matmul da db in
  let c_sparse = Csr.matmul (Csr.of_dense da) (Csr.of_dense db) in
  Alcotest.(check bool) "sparse matmul matches dense" true
    (Icoe_util.Stats.max_abs_diff (Csr.to_dense c_sparse).Dense.a c_dense.Dense.a
    < 1e-13)

let test_laplacian_row_sums () =
  let l = Csr.laplacian_2d 5 5 in
  (* interior rows sum to 0; boundary rows are positive (Dirichlet) *)
  let x = Array.make 25 1.0 in
  let y = Csr.spmv l x in
  check_float "interior row sum" 0.0 y.(12);
  Alcotest.(check bool) "corner row sum positive" true (y.(0) > 0.0)

(* the stored diagonal of [a], read through the dense form *)
let diag (a : Csr.t) =
  let d = Csr.to_dense a in
  Array.init a.Csr.m (fun i -> Dense.get d i i)

let test_csr_diag () =
  let l = Csr.laplacian_3d 3 3 3 in
  Alcotest.(check bool) "diag all 6" true
    (Array.for_all (fun v -> v = 6.0) (diag l))

(* --- Krylov --- *)

let metric_value name labels =
  Option.value ~default:0.0 (Icoe_obs.Metrics.value ~labels name)

let laplacian_system n =
  let a = Csr.laplacian_2d n n in
  let rng = Icoe_util.Rng.create 15 in
  let x_true = Array.init (n * n) (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
  let b = Csr.spmv a x_true in
  (a, b, x_true)

let test_cg_on_laplacian () =
  let a, b, x_true = laplacian_system 12 in
  let it0 = metric_value "krylov_iterations_total" [ ("method", "cg") ] in
  let sv0 = metric_value "krylov_solves_total" [ ("method", "cg") ] in
  let r = Krylov.cg ~tol:1e-12 ~max_iter:2000 ~op:(Csr.spmv_into a) b
      (Array.make (Array.length b) 0.0)
  in
  Alcotest.(check bool) "converged" true r.Krylov.converged;
  Alcotest.(check bool) "accurate" true
    (Icoe_util.Stats.max_abs_diff r.Krylov.x x_true < 1e-8);
  (* the metrics registry must agree with the returned result *)
  Alcotest.(check (float 1e-9)) "registry counted the iterations"
    (float_of_int r.Krylov.iters)
    (metric_value "krylov_iterations_total" [ ("method", "cg") ] -. it0);
  Alcotest.(check (float 1e-9)) "registry counted the solve" 1.0
    (metric_value "krylov_solves_total" [ ("method", "cg") ] -. sv0)

let test_pcg_jacobi_faster () =
  let a, b, _ = laplacian_system 16 in
  let d = diag a in
  let x0 = Array.make (Array.length b) 0.0 in
  let plain = Krylov.cg ~tol:1e-10 ~max_iter:5000 ~op:(Csr.spmv_into a) b x0 in
  let pre =
    Krylov.cg ~tol:1e-10 ~max_iter:5000 ~op:(Csr.spmv_into a)
      ~precond:(fun r z -> Array.iteri (fun i ri -> z.(i) <- ri /. d.(i)) r)
      b x0
  in
  Alcotest.(check bool) "both converge" true
    (plain.Krylov.converged && pre.Krylov.converged);
  (* Jacobi = diagonal scaling doesn't help a constant-diagonal Laplacian,
     but must not hurt by more than rounding *)
  Alcotest.(check bool) "pcg iter count sane" true
    (pre.Krylov.iters <= plain.Krylov.iters + 2)

let prop_lu_roundtrip =
  QCheck.Test.make ~name:"LU solve recovers random diag-dominant systems"
    ~count:30
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let n = 3 + Icoe_util.Rng.int rng 12 in
      let a = Dense.init n n (fun i j ->
          if i = j then float_of_int n +. 1.0
          else Icoe_util.Rng.uniform rng (-1.0) 1.0)
      in
      let x_true = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-5.0) 5.0) in
      let b = Dense.matvec a x_true in
      let x = Dense.solve a b in
      Icoe_util.Stats.max_abs_diff x x_true < 1e-8)

let prop_csr_dense_roundtrip =
  QCheck.Test.make ~name:"csr <-> dense roundtrip" ~count:30
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let m = 1 + Icoe_util.Rng.int rng 10 and n = 1 + Icoe_util.Rng.int rng 10 in
      let d = Dense.init m n (fun _ _ ->
          if Icoe_util.Rng.float rng < 0.4 then Icoe_util.Rng.uniform rng (-3.0) 3.0
          else 0.0)
      in
      let d2 = Csr.to_dense (Csr.of_dense d) in
      Icoe_util.Stats.max_abs_diff d2.Dense.a d.Dense.a < 1e-14)

let bits_equal_arrays a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* [a] + sigma I, on a copy *)
let shift_diag (a : Csr.t) sigma =
  let values = Icoe_util.Fbuf.copy a.Csr.values in
  for i = 0 to a.Csr.m - 1 do
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      if a.Csr.col_idx.(k) = i then
        Icoe_util.Fbuf.set values k (Icoe_util.Fbuf.get values k +. sigma)
    done
  done;
  { a with Csr.values }

(* The in-place, fused CG against [Ref_cg] bit for bit: 2D and 3D
   Laplacians from a single cell up, diagonal shifts (a negative one
   makes the operator indefinite, so the curvature bail-out runs too),
   random right-hand sides and starts, tolerances down to 0, which runs
   to [max_iter] *)
let prop_cg_matches_reference =
  QCheck.Test.make ~name:"in-place cg bit-identical to the reference"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let dim k = 1 + Icoe_util.Rng.int rng k in
      let a =
        if Icoe_util.Rng.float rng < 0.5 then Csr.laplacian_2d (dim 24) (dim 24)
        else Csr.laplacian_3d (dim 8) (dim 8) (dim 8)
      in
      let a =
        match Icoe_util.Rng.int rng 3 with
        | 0 -> a
        | 1 -> shift_diag a (Icoe_util.Rng.uniform rng 0.0 2.0)
        | _ -> shift_diag a (Icoe_util.Rng.uniform rng (-8.0) 0.0)
      in
      let n = a.Csr.m in
      let b = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
      let x0 =
        if Icoe_util.Rng.float rng < 0.5 then Array.make n 0.0
        else Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0)
      in
      let tol = [| 1e-2; 1e-6; 1e-10; 1e-14; 0.0 |].(Icoe_util.Rng.int rng 5) in
      let max_iter = Icoe_util.Rng.int rng 300 in
      let r = Krylov.cg ~tol ~max_iter ~op:(Csr.spmv_into a) b x0 in
      let o = Ref_cg.cg ~tol ~max_iter ~op:(Csr.spmv a) b x0 in
      let bits = Int64.bits_of_float in
      Array.map bits r.Krylov.x = Array.map bits o.Krylov.x
      && r.Krylov.iters = o.Krylov.iters
      && bits r.Krylov.residual = bits o.Krylov.residual
      && r.Krylov.converged = o.Krylov.converged)

(* The preconditioned CG against [Ref_pcg] bit for bit, on the same
   random 2D/3D Laplacians (from one cell up) with positive diagonal
   shifts, under a diagonal (Jacobi) preconditioner and under one AMG
   V-cycle: there the oracle runs the allocating [Ref_amg] cycle, so the
   whole PCG + AMG stack is compared with the one it replaced. x,
   iteration count, residual and convergence flag must all agree. *)
let prop_pcg_matches_reference =
  QCheck.Test.make ~name:"cg ~precond bit-identical to the reference pcg"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let dim k = 1 + Icoe_util.Rng.int rng k in
      let a =
        if Icoe_util.Rng.float rng < 0.5 then Csr.laplacian_2d (dim 24) (dim 24)
        else Csr.laplacian_3d (dim 8) (dim 8) (dim 8)
      in
      let a =
        if Icoe_util.Rng.float rng < 0.5 then a
        else shift_diag a (Icoe_util.Rng.uniform rng 0.0 2.0)
      in
      let n = a.Csr.m in
      let b = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0) in
      let x0 =
        if Icoe_util.Rng.float rng < 0.5 then Array.make n 0.0
        else Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-1.0) 1.0)
      in
      let tol = [| 1e-2; 1e-6; 1e-10; 1e-14; 0.0 |].(Icoe_util.Rng.int rng 5) in
      let max_iter = Icoe_util.Rng.int rng 120 in
      let precond, ref_precond =
        if Icoe_util.Rng.float rng < 0.5 then
          let d = diag a in
          ( (fun r z -> Array.iteri (fun i ri -> z.(i) <- ri /. d.(i)) r),
            fun r -> Array.mapi (fun i ri -> ri /. d.(i)) r )
        else
          let amg = Hypre.Boomeramg.setup a in
          (Hypre.Boomeramg.precond amg, Ref_amg.precond amg (Ref_amg.coarse_lu amg))
      in
      let r = Krylov.cg ~tol ~max_iter ~precond ~op:(Csr.spmv_into a) b x0 in
      let o =
        Ref_pcg.pcg ~tol ~max_iter ~op:(Csr.spmv a) ~precond:ref_precond b x0
      in
      bits_equal_arrays r.Krylov.x o.Krylov.x
      && r.Krylov.iters = o.Krylov.iters
      && Int64.equal
           (Int64.bits_of_float r.Krylov.residual)
           (Int64.bits_of_float o.Krylov.residual)
      && r.Krylov.converged = o.Krylov.converged)

(* [Dense.lu_solve_into] against the [Ref_amg] factor-and-solve over
   [Dense.get], bit for bit, on random diagonally dominant systems from
   n = 1, rows shuffled so the pivoting swaps them back *)
let prop_lu_solve_into_matches_reference =
  QCheck.Test.make ~name:"lu_solve_into bit-identical to the reference"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let n = 1 + Icoe_util.Rng.int rng 16 in
      let a =
        Dense.init n n (fun i j ->
            if i = j then float_of_int n +. Icoe_util.Rng.uniform rng 1.0 2.0
            else Icoe_util.Rng.uniform rng (-1.0) 1.0)
      in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let k = Icoe_util.Rng.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(k);
        perm.(k) <- t
      done;
      let a = Dense.init n n (fun i j -> Dense.get a perm.(i) j) in
      let b = Array.init n (fun _ -> Icoe_util.Rng.uniform rng (-5.0) 5.0) in
      let x = Array.make n nan in
      Dense.lu_solve_into (Dense.lu_factor a) b x;
      bits_equal_arrays x (Ref_amg.lu_solve (Ref_amg.lu_factor a) b))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "ops" `Quick test_vec_ops;
          Alcotest.test_case "wrms" `Quick test_wrms;
        ] );
      ( "dense",
        [
          Alcotest.test_case "lu random" `Quick test_lu_solves_random_system;
          Alcotest.test_case "lu pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "lu singular" `Quick test_lu_singular_raises;
          Alcotest.test_case "matmul identity" `Quick test_matmul_identity;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          QCheck_alcotest.to_alcotest prop_lu_roundtrip;
          QCheck_alcotest.to_alcotest prop_lu_solve_into_matches_reference;
        ] );
      ( "csr",
        [
          Alcotest.test_case "spmv vs dense" `Quick test_csr_spmv_matches_dense;
          Alcotest.test_case "spmv harness sizes" `Quick test_csr_spmv_harness_sizes;
          Alcotest.test_case "triplets dedupe" `Quick test_csr_triplets_duplicates_summed;
          Alcotest.test_case "triplets column order" `Quick
            test_csr_triplets_column_order;
          Alcotest.test_case "transpose" `Quick test_csr_transpose;
          Alcotest.test_case "matmul vs dense" `Quick test_csr_matmul_matches_dense;
          Alcotest.test_case "laplacian rows" `Quick test_laplacian_row_sums;
          Alcotest.test_case "diag" `Quick test_csr_diag;
          QCheck_alcotest.to_alcotest prop_csr_dense_roundtrip;
        ] );
      ( "krylov",
        [
          Alcotest.test_case "cg laplacian" `Quick test_cg_on_laplacian;
          Alcotest.test_case "pcg jacobi" `Quick test_pcg_jacobi_faster;
          QCheck_alcotest.to_alcotest prop_cg_matches_reference;
          QCheck_alcotest.to_alcotest prop_pcg_matches_reference;
        ] );
    ]
