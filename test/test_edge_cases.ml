(* Failure-injection and edge-case tests across the workload: the library
   must fail loudly (assertions, typed exceptions) or degrade gracefully
   (converged = false) rather than silently returning nonsense. *)

let expect_assert name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Assert_failure")
  | exception Assert_failure _ -> ()
  | exception Invalid_argument _ -> ()

(* --- linalg --- *)

let test_cg_nonconvergence_reported () =
  (* CG on an indefinite operator: must report converged = false (or bail
     via the finite-check), never loop forever or claim success *)
  let op x = Array.mapi (fun i v -> if i mod 2 = 0 then v else -.v) x in
  let b = Array.make 10 1.0 in
  let r = Linalg.Krylov.cg ~tol:1e-12 ~max_iter:50 ~op b (Array.make 10 0.0) in
  Alcotest.(check bool) "not claimed converged" true
    ((not r.Linalg.Krylov.converged) || r.Linalg.Krylov.residual < 1e-12)

let test_gmres_iteration_cap () =
  (* a rotation-like operator that GMRES cannot solve in few iterations:
     the cap must bind *)
  let n = 40 in
  let op x = Array.init n (fun i -> x.((i + 1) mod n)) in
  let b = Array.init n (fun i -> if i = 0 then 1.0 else 0.0) in
  let r = Linalg.Krylov.gmres ~tol:1e-14 ~max_iter:10 ~restart:5 ~op b (Array.make n 0.0) in
  Alcotest.(check bool) "iters within cap" true (r.Linalg.Krylov.iters <= 10)

let test_dense_singular_exception () =
  let a = Linalg.Dense.init 4 4 (fun _ j -> float_of_int j) in
  Alcotest.(check bool) "raises Singular" true
    (match Linalg.Dense.lu_factor a with
    | _ -> false
    | exception Linalg.Dense.Singular _ -> true)

let test_csr_triplet_bounds () =
  expect_assert "row out of range" (fun () ->
      Linalg.Csr.of_triplets ~m:2 ~n:2 [ (5, 0, 1.0) ])

(* the linalg input guards: Invalid_argument whose message names the
   function and both sizes *)
let expect_invalid_naming name parts f =
  let contains msg part =
    let n = String.length part in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = part || at (i + 1))
    in
    at 0
  in
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument msg ->
      List.iter
        (fun part ->
          Alcotest.(check bool) (Fmt.str "%s: %S names %S" name msg part) true
            (contains msg part))
        parts

let test_vec_length_guards () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 1.0; 2.0 |] in
  let open Linalg.Vec in
  List.iter
    (fun (fn, f) -> expect_invalid_naming fn [ "Vec." ^ fn; "3"; "2" ] f)
    [
      ("axpy", fun () -> axpy 2.0 x y);
      ("xpby", fun () -> xpby x 2.0 y);
      ("dot", fun () -> ignore (dot x y));
      ("sub", fun () -> ignore (sub x y));
      ("add", fun () -> ignore (add x y));
      ("mul", fun () -> ignore (mul x y));
      ("wrms", fun () -> ignore (wrms x y));
    ];
  (* matching lengths still compute *)
  let z = [| 1.0; 1.0; 1.0 |] in
  axpy 2.0 x z;
  Alcotest.(check (array (float 0.0))) "axpy" [| 3.0; 5.0; 7.0 |] z

let test_dense_size_guards () =
  let open Linalg.Dense in
  let a = create 2 3 in
  expect_invalid_naming "get row" [ "Dense.get"; "(2, 0)"; "2x3" ] (fun () ->
      get a 2 0);
  expect_invalid_naming "get column" [ "Dense.get"; "(0, -1)"; "2x3" ]
    (fun () -> get a 0 (-1));
  expect_invalid_naming "set" [ "Dense.set"; "(0, 3)"; "2x3" ] (fun () ->
      set a 0 3 1.0);
  expect_invalid_naming "matvec" [ "Dense.matvec"; "length 2"; "2x3" ]
    (fun () -> matvec a [| 1.0; 2.0 |]);
  expect_invalid_naming "matmul" [ "Dense.matmul"; "2x3 times 2x3" ]
    (fun () -> matmul a a);
  expect_invalid_naming "lu_factor" [ "Dense.lu_factor"; "2x3" ] (fun () ->
      lu_factor a);
  expect_invalid_naming "lu_solve" [ "Dense.lu_solve"; "length 2"; "order 3" ]
    (fun () -> lu_solve (lu_factor (identity 3)) [| 1.0; 2.0 |]);
  Alcotest.(check (array (float 0.0))) "in-range solve" [| 1.0; 2.0; 3.0 |]
    (solve (identity 3) [| 1.0; 2.0; 3.0 |])

(* --- sundials --- *)

let test_bdf_too_much_work () =
  (* finite-time blow-up ODE with a tiny step cap must raise, not hang *)
  let rhs _t y = [| y.(0) *. y.(0) |] in
  Alcotest.(check bool) "raises Too_much_work" true
    (match
       Sundials.Cvode.bdf ~rtol:1e-10 ~atol:1e-12 ~max_steps:50 ~rhs
         ~lsolve:(Sundials.Cvode.fd_dense_lsolve ~rhs) ~t0:0.0 ~y0:[| 1.0 |]
         2.0
     with
    | _ -> false
    | exception Sundials.Cvode.Too_much_work _ -> true)

(* --- fft / vbl --- *)

let test_fft_rejects_non_pow2 () =
  expect_assert "non-power-of-2" (fun () ->
      Fftlib.Fft.transform (Array.make (2 * 12) 0.0))

let test_beam_rejects_non_pow2 () =
  expect_assert "beam grid" (fun () -> Vbl.Beam.create ~n:100 ~width:0.1 ())

(* --- scheduler --- *)

let test_scheduler_empty_workload () =
  let m = Opt.Scheduler.simulate ~gpus:4 Opt.Scheduler.Sjf [] in
  Alcotest.(check int) "no jobs" 0 m.Opt.Scheduler.completed;
  Alcotest.(check (float 1e-12)) "zero makespan" 0.0 m.Opt.Scheduler.makespan

let test_scheduler_oversized_job () =
  (* a job wider than the pool can never start; the simulation must
     terminate and report it incomplete *)
  let jobs = [ { Opt.Scheduler.id = 0; arrival = 0.0; duration = 1.0; gpus = 9 } ] in
  let m = Opt.Scheduler.simulate ~gpus:4 Opt.Scheduler.Sjf jobs in
  Alcotest.(check int) "not completed" 0 m.Opt.Scheduler.completed

let test_scheduler_oversized_head_does_not_starve () =
  (* the 9-GPU job at the head of a 4-GPU pool can never start, but it
     must not block the two 1-GPU jobs behind it under any policy (FCFS
     used to hold them forever behind the head) *)
  let job id gpus = { Opt.Scheduler.id; arrival = 0.0; duration = 1.0; gpus } in
  let jobs = [ job 0 9; job 1 1; job 2 1 ] in
  List.iter
    (fun pol ->
      let m = Opt.Scheduler.simulate ~gpus:4 ~check:true pol jobs in
      Alcotest.(check int)
        (Opt.Scheduler.policy_name pol ^ " completes the fitting jobs")
        2 m.Opt.Scheduler.completed)
    Opt.Scheduler.[ Fcfs; Fcfs_backfill; Sjf; Sjf_quota 0.5 ]

(* --- melodee --- *)

let test_melodee_division_by_zero () =
  (* IEEE semantics, not a crash *)
  let e = Cardioid.Melodee.(Div (Const 1.0, Var 0)) in
  let v = Cardioid.Melodee.eval [| 0.0 |] e in
  Alcotest.(check bool) "inf" true (Float.is_finite v = false)

let test_melodee_log_negative () =
  let e = Cardioid.Melodee.(Log (Const (-1.0))) in
  Alcotest.(check bool) "nan" true (Float.is_nan (Cardioid.Melodee.eval [||] e))

(* --- hypre / pfmg --- *)

let test_pfmg_rejects_bad_size () =
  expect_assert "n must be 2^k - 1" (fun () -> Hypre.Pfmg.create 10)

let test_boxloop_rejects_inverted_box () =
  expect_assert "inverted box" (fun () ->
      Samrai.Box.make ~ilo:5 ~jlo:0 ~ihi:2 ~jhi:3)

(* --- linalg regression: unguarded curvature division in cg --- *)

let test_cg_singular_projection_stays_finite () =
  (* A projection operator that zeroes the last component is singular; with
     b = e_last the very first search direction has p^T A p = 0.  The
     unguarded alpha = rr / pap division poisoned x with inf/nan; the guard
     must bail immediately with a finite x and converged = false. *)
  let n = 6 in
  let op x = Array.mapi (fun i v -> if i = n - 1 then 0.0 else v) x in
  let b = Array.init n (fun i -> if i = n - 1 then 1.0 else 0.0) in
  let r = Linalg.Krylov.cg ~max_iter:20 ~op b (Array.make n 0.0) in
  Alcotest.(check bool) "not converged" false r.Linalg.Krylov.converged;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "x stays finite" true (Float.is_finite v))
    r.Linalg.Krylov.x

(* --- util --- *)

let test_rng_int_zero () =
  expect_assert "n must be positive" (fun () ->
      Icoe_util.Rng.int (Icoe_util.Rng.create 1) 0)

let test_table_row_arity () =
  let t = Icoe_util.Table.create ~title:"t" [ "a"; "b" ] in
  expect_assert "wrong arity" (fun () -> Icoe_util.Table.add_row t [ "only one" ])

let test_stats_singleton () =
  Alcotest.(check (float 1e-12)) "variance of singleton" 0.0
    (Icoe_util.Stats.variance [| 5.0 |]);
  Alcotest.(check (float 1e-12)) "percentile of singleton" 5.0
    (Icoe_util.Stats.percentile [| 5.0 |] 0.7)

let test_rng_int_unbiased () =
  (* n = 3 * 2^60 divides the 62-bit draw domain [0, 2^62) into a "low"
     region [0, 2^60) hit by draws in [0, 2^60) ∪ [3*2^60, 2^62), i.e.
     with the old biased modulo half of all draws landed below 2^60
     instead of a third.  Rejection sampling must bring the fraction back
     to ~1/3. *)
  let rng = Icoe_util.Rng.create 2024 in
  let n = 3 * (1 lsl 60) in
  let lo = 1 lsl 60 in
  let draws = 20_000 in
  let hits = ref 0 in
  for _ = 1 to draws do
    if Icoe_util.Rng.int rng n < lo then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "low fraction %.3f near 1/3, not 1/2" frac)
    true
    (frac < 0.40)

let test_categorical_skips_trailing_zero_weight () =
  (* Weights summing to +inf made every [x < acc] comparison false, so the
     walk fell off the end and returned the final — zero-weight — index. *)
  let rng = Icoe_util.Rng.create 7 in
  let w = [| 1e308; 1e308; 0.0 |] in
  for _ = 1 to 100 do
    let i = Icoe_util.Rng.categorical rng w in
    Alcotest.(check bool) "never the zero-weight index" true (i < 2)
  done;
  (* deterministic boundary: a u just below 1.0 must map to the last
     positive-weight index, not beyond it *)
  let u = 1.0 -. (epsilon_float /. 2.0) in
  Alcotest.(check int) "u -> 1.0 boundary" 1
    (Icoe_util.Rng.categorical_from u [| 1.0; 1.0; 0.0 |])

let test_percentile_sorted_once () =
  let a = [| 9.0; 1.0; 5.0; 3.0; 7.0 |] in
  let s = Icoe_util.Stats.presort a in
  Alcotest.(check bool) "input untouched" true (a.(0) = 9.0);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p=%.2f agrees" p)
        (Icoe_util.Stats.percentile a p)
        (Icoe_util.Stats.percentile_sorted s p))
    [ 0.0; 0.25; 0.5; 0.9; 1.0 ]

(* --- hwsim --- *)

let test_kernel_rejects_negative () =
  expect_assert "negative flops" (fun () ->
      Hwsim.Kernel.make ~name:"bad" ~flops:(-1.0) ~bytes:0.0 ())

let test_clock_rejects_negative_tick () =
  let c = Hwsim.Clock.create () in
  expect_assert "negative dt" (fun () -> Hwsim.Clock.tick c ~phase:"x" (-1.0))

let test_counters_series_equal_timestamps () =
  (* two samples at the same instant used to produce a zero-width interval
     and a nan/inf bandwidth entry; they must be merged instead, keeping
     the later cumulative count so no traffic is lost *)
  let c = Hwsim.Counters.create Hwsim.Device.power9 in
  Hwsim.Counters.sample c ~time:0.0 ~bytes:0.0;
  Hwsim.Counters.sample c ~time:1.0 ~bytes:10e9;
  Hwsim.Counters.sample c ~time:1.0 ~bytes:15e9;
  Hwsim.Counters.sample c ~time:2.0 ~bytes:25e9;
  let s = Hwsim.Counters.series c in
  List.iter
    (fun (t, gbs) ->
      Alcotest.(check bool)
        (Printf.sprintf "finite at t=%.2f" t)
        true
        (Float.is_finite gbs))
    s;
  Alcotest.(check int) "two real intervals" 2 (List.length s);
  (* the merged sample keeps bytes=15e9, so the first interval carries all
     traffic up to t=1 and the mean over the window is unchanged *)
  (match s with
  | (_, gbs1) :: (_, gbs2) :: _ ->
      Alcotest.(check (float 1e-6)) "first interval" 15.0 gbs1;
      Alcotest.(check (float 1e-6)) "second interval" 10.0 gbs2
  | _ -> Alcotest.fail "expected two intervals");
  Alcotest.(check (float 1e-6)) "mean bandwidth" 12.5
    (Hwsim.Counters.achieved_gbs c)

(* --- cretin --- *)

let test_cretin_tiny_ladder_rejected () =
  expect_assert "needs >= 2 levels" (fun () -> Cretin.Atomic.ladder 1)

(* --- ddcmd --- *)

let test_particles_bad_box () =
  expect_assert "box must be positive" (fun () ->
      Ddcmd.Particles.create ~n:8 ~box:(-1.0))

(* --- dlearn: the flat MLP kernels index unchecked, so bad sizes and
   labels must be rejected, with a message, before they run --- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument msg ->
      Alcotest.(check bool) (name ^ ": message") true (msg <> "")

let mlp () = Dlearn.Mlp.create ~rng:(Icoe_util.Rng.create 1) [| 3; 5; 2 |]

let test_mlp_bad_sizes () =
  let create sizes () =
    Dlearn.Mlp.create ~rng:(Icoe_util.Rng.create 1) sizes
  in
  expect_invalid "no layers" (create [||]);
  expect_invalid "input only" (create [| 4 |]);
  expect_invalid "zero-width hidden layer" (create [| 4; 0; 2 |]);
  expect_invalid "negative output width" (create [| 4; -3 |])

let test_mlp_bad_input () =
  let m = mlp () in
  List.iter
    (fun x ->
      let n = Array.length x in
      expect_invalid (Fmt.str "predict_proba, %d inputs" n) (fun () ->
          Dlearn.Mlp.predict_proba m x);
      expect_invalid (Fmt.str "predict, %d inputs" n) (fun () ->
          Dlearn.Mlp.predict m x);
      expect_invalid (Fmt.str "backward, %d inputs" n) (fun () ->
          Dlearn.Mlp.backward m x ~label:0))
    [ [||]; [| 1.0; 2.0 |]; Array.make 4 0.5 ];
  let x = [| 0.1; 0.2; 0.3 |] in
  expect_invalid "label -1" (fun () -> Dlearn.Mlp.backward m x ~label:(-1));
  expect_invalid "label = classes" (fun () -> Dlearn.Mlp.backward m x ~label:2);
  expect_invalid "set_params, short" (fun () ->
      Dlearn.Mlp.set_params m (Array.make 3 0.0));
  expect_invalid "forward_rows, rows past the layer" (fun () ->
      Dlearn.Mlp.forward_rows m ~layer:0 ~src:(Icoe_util.Fbuf.create 3)
        ~dst:(Icoe_util.Fbuf.create 5) ~lo:0 ~hi:6);
  expect_invalid "forward_rows, short src" (fun () ->
      Dlearn.Mlp.forward_rows m ~layer:1 ~src:(Icoe_util.Fbuf.create 3)
        ~dst:(Icoe_util.Fbuf.create 2) ~lo:0 ~hi:2);
  expect_invalid "forward_rows, long dst" (fun () ->
      Dlearn.Mlp.forward_rows m ~layer:1 ~src:(Icoe_util.Fbuf.create 5)
        ~dst:(Icoe_util.Fbuf.create 3) ~lo:0 ~hi:2);
  expect_invalid "model-parallel, 0 shards" (fun () ->
      Dlearn.Modelparallel.create ~shards:0 m);
  expect_invalid "model-parallel, short input" (fun () ->
      Dlearn.Modelparallel.predict_proba
        (Dlearn.Modelparallel.create ~shards:2 m)
        [| 0.1; 0.2 |]);
  (* a rejected call leaves the model usable and unchanged *)
  let before = Dlearn.Mlp.get_params m in
  expect_invalid "train_batch, one bad label" (fun () ->
      Dlearn.Mlp.train_batch m ~lr:0.1 [| x; x |] [| 0; 7 |]);
  Alcotest.(check bool) "params untouched" true
    (before = Dlearn.Mlp.get_params m)

let test_mlp_batch_length_mismatch () =
  let m = mlp () in
  let x = [| 0.1; 0.2; 0.3 |] in
  expect_invalid "2 inputs, 1 label" (fun () ->
      Dlearn.Mlp.train_batch m ~lr:0.1 [| x; x |] [| 0 |]);
  expect_invalid "1 input, 2 labels" (fun () ->
      Dlearn.Mlp.train_batch m ~lr:0.1 [| x |] [| 0; 1 |])

(* --- engine constructors: the Fbuf kernels behind them index through
   unchecked Bigarray access, so a bad size must never get that far --- *)

let test_sw4_grid_bad_sizes () =
  List.iter
    (fun (nx, ny) ->
      expect_invalid (Fmt.str "grid %dx%d" nx ny) (fun () ->
          Sw4.Grid.create ~nx ~ny ~h:100.0))
    [ (8, 9); (9, 8); (0, 0); (-9, -9); (9, min_int) ];
  let g = Sw4.Grid.create ~nx:9 ~ny:9 ~h:100.0 in
  expect_invalid "vp below sqrt(2) vs" (fun () ->
      Sw4.Grid.homogeneous g ~rho:2600.0 ~vp:1000.0 ~vs:2900.0)

let test_monodomain_bad_sizes () =
  let create ?(nx = 4) ?(ny = 4) ?(dt = 0.02) () () =
    Cardioid.Monodomain.create ~nx ~ny ~dt ()
  in
  expect_invalid "nx = 0" (create ~nx:0 ());
  expect_invalid "ny = 0" (create ~ny:0 ());
  (* both negative: the product is positive, the grid is not *)
  expect_invalid "nx, ny < 0" (create ~nx:(-2) ~ny:(-3) ());
  List.iter
    (fun dt -> expect_invalid (Fmt.str "dt = %g" dt) (create ~dt ()))
    [ 0.0; -0.02; Float.nan; Float.infinity ]

let test_particles_bad_sizes () =
  List.iter
    (fun (n, box) ->
      expect_invalid (Fmt.str "n = %d, box = %g" n box) (fun () ->
          Ddcmd.Particles.create ~n ~box))
    [ (0, 1.0); (-5, 1.0); (8, 0.0); (8, Float.nan); (8, Float.infinity) ]

let test_md_engine_bad_dt () =
  let p = Ddcmd.Particles.create ~n:8 ~box:4.0 in
  List.iter
    (fun dt ->
      expect_invalid (Fmt.str "dt = %g" dt) (fun () ->
          Ddcmd.Engine.create ~dt ~potential:(Ddcmd.Potential.lennard_jones ())
            p))
    [ 0.0; -0.004; Float.nan; Float.neg_infinity ]

(* --- cost models price from sizes: a production-sized rate query must
   not build engine state (a 5000 x 5000 grid is three 25M-float
   arrays, ~600 MB) --- *)

let test_sw4_pricing_from_sizes () =
  let price () =
    List.fold_left
      (fun a node ->
        a
        +. Sw4.Scenario.node_throughput node ~points:25_000_000
        +. Sw4.Scenario.node_cpu_throughput node ~points:25_000_000)
      0.0
      Hwsim.Node.[ witherspoon; cori_ii ]
  in
  let heap0 = (Gc.quick_stat ()).Gc.top_heap_words in
  let minor0 = Gc.minor_words () in
  let rate = price () in
  let minor = Gc.minor_words () -. minor0 in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words - heap0 in
  Alcotest.(check bool) "finite positive rates" true
    (Float.is_finite rate && rate > 0.0);
  Alcotest.(check bool)
    (Fmt.str "%.0f minor + %d heap words within 10^4" minor heap)
    true
    (minor +. float_of_int heap <= 1e4)

let () =
  Alcotest.run "edge_cases"
    [
      ( "linalg",
        [
          Alcotest.test_case "cg nonconvergence" `Quick test_cg_nonconvergence_reported;
          Alcotest.test_case "gmres cap" `Quick test_gmres_iteration_cap;
          Alcotest.test_case "singular" `Quick test_dense_singular_exception;
          Alcotest.test_case "triplet bounds" `Quick test_csr_triplet_bounds;
          Alcotest.test_case "cg singular projection" `Quick
            test_cg_singular_projection_stays_finite;
          Alcotest.test_case "vec length guards" `Quick test_vec_length_guards;
          Alcotest.test_case "dense size guards" `Quick test_dense_size_guards;
        ] );
      ("sundials", [ Alcotest.test_case "too much work" `Quick test_bdf_too_much_work ]);
      ( "fft",
        [
          Alcotest.test_case "non-pow2 fft" `Quick test_fft_rejects_non_pow2;
          Alcotest.test_case "non-pow2 beam" `Quick test_beam_rejects_non_pow2;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "empty workload" `Quick test_scheduler_empty_workload;
          Alcotest.test_case "oversized job" `Quick test_scheduler_oversized_job;
          Alcotest.test_case "oversized head does not starve" `Quick
            test_scheduler_oversized_head_does_not_starve;
        ] );
      ( "melodee",
        [
          Alcotest.test_case "div by zero" `Quick test_melodee_division_by_zero;
          Alcotest.test_case "log negative" `Quick test_melodee_log_negative;
        ] );
      ( "structured",
        [
          Alcotest.test_case "pfmg size" `Quick test_pfmg_rejects_bad_size;
          Alcotest.test_case "inverted box" `Quick test_boxloop_rejects_inverted_box;
        ] );
      ( "util",
        [
          Alcotest.test_case "rng int 0" `Quick test_rng_int_zero;
          Alcotest.test_case "table arity" `Quick test_table_row_arity;
          Alcotest.test_case "stats singleton" `Quick test_stats_singleton;
          Alcotest.test_case "rng int unbiased" `Quick test_rng_int_unbiased;
          Alcotest.test_case "categorical trailing zero" `Quick
            test_categorical_skips_trailing_zero_weight;
          Alcotest.test_case "percentile sorted once" `Quick
            test_percentile_sorted_once;
        ] );
      ( "hwsim",
        [
          Alcotest.test_case "negative kernel" `Quick test_kernel_rejects_negative;
          Alcotest.test_case "negative tick" `Quick test_clock_rejects_negative_tick;
          Alcotest.test_case "counters equal timestamps" `Quick
            test_counters_series_equal_timestamps;
        ] );
      ("cretin", [ Alcotest.test_case "tiny ladder" `Quick test_cretin_tiny_ladder_rejected ]);
      ("ddcmd", [ Alcotest.test_case "bad box" `Quick test_particles_bad_box ]);
      ( "dlearn",
        [
          Alcotest.test_case "mlp bad sizes" `Quick test_mlp_bad_sizes;
          Alcotest.test_case "mlp bad input" `Quick test_mlp_bad_input;
          Alcotest.test_case "mlp batch length mismatch" `Quick
            test_mlp_batch_length_mismatch;
        ] );
      ( "engine sizes",
        [
          Alcotest.test_case "sw4 grid" `Quick test_sw4_grid_bad_sizes;
          Alcotest.test_case "cardioid monodomain" `Quick
            test_monodomain_bad_sizes;
          Alcotest.test_case "ddcmd particles" `Quick test_particles_bad_sizes;
          Alcotest.test_case "ddcmd engine dt" `Quick test_md_engine_bad_dt;
        ] );
      ( "cost models",
        [
          Alcotest.test_case "sw4 pricing from sizes" `Quick
            test_sw4_pricing_from_sizes;
        ] );
    ]
