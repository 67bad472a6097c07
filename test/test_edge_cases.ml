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
  let op x y = Array.iteri (fun i v -> y.(i) <- (if i mod 2 = 0 then v else -.v)) x in
  let b = Array.make 10 1.0 in
  let r = Linalg.Krylov.cg ~tol:1e-12 ~max_iter:50 ~op b (Array.make 10 0.0) in
  Alcotest.(check bool) "not claimed converged" true
    ((not r.Linalg.Krylov.converged) || r.Linalg.Krylov.residual < 1e-12)

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
  expect_invalid_naming "lu_solve_into"
    [ "Dense.lu_solve_into"; "b has length 3"; "x has length 4"; "order 3" ]
    (fun () ->
      lu_solve_into (lu_factor (identity 3)) [| 1.0; 2.0; 3.0 |] (Array.make 4 0.0));
  Alcotest.(check (array (float 0.0))) "in-range solve" [| 1.0; 2.0; 3.0 |]
    (solve (identity 3) [| 1.0; 2.0; 3.0 |])

let test_cg_length_guard () =
  let op u y = Array.blit u 0 y 0 (Array.length u) in
  expect_invalid_naming "cg" [ "Krylov.cg"; "3"; "2" ] (fun () ->
      Linalg.Krylov.cg ~op [| 1.0; 2.0; 3.0 |] [| 0.0; 0.0 |]);
  let r = Linalg.Krylov.cg ~op [| 1.0; 2.0 |] [| 0.0; 0.0 |] in
  Alcotest.(check (array (float 0.0))) "identity solve" [| 1.0; 2.0 |]
    r.Linalg.Krylov.x

let test_csr_size_guards () =
  let open Linalg.Csr in
  expect_invalid_naming "of_triplets" [ "Csr.of_triplets"; "(1, 3)"; "2x3" ]
    (fun () -> of_triplets ~m:2 ~n:3 [ (0, 0, 1.0); (1, 3, 1.0) ]);
  expect_invalid_naming "of_triplets, m < 0" [ "Csr.of_triplets"; "m = -1" ]
    (fun () -> of_triplets ~m:(-1) ~n:3 []);
  expect_invalid_naming "of_triplets, n < 0" [ "Csr.of_triplets"; "n = -2" ]
    (fun () -> of_triplets ~m:2 ~n:(-2) []);
  Alcotest.(check int) "0x0 is empty" 0 (nnz (of_triplets ~m:0 ~n:0 []));
  let a = laplacian_2d 2 3 in
  let x = Array.make 6 1.0 and short = Array.make 5 0.0 in
  expect_invalid_naming "spmv_into" [ "Csr.spmv_into"; "5"; "6"; "6x6" ]
    (fun () -> spmv_into a short x);
  expect_invalid_naming "spmv_seq_into"
    [ "Csr.spmv_seq_into"; "6"; "5"; "6x6" ] (fun () ->
      spmv_seq_into a x short);
  expect_invalid_naming "spmv" [ "Csr.spmv_into"; "5"; "6x6" ] (fun () ->
      spmv a short);
  let b = of_triplets ~m:5 ~n:2 [ (0, 0, 1.0) ] in
  expect_invalid_naming "matmul" [ "Csr.matmul"; "6x6 times 5x2" ] (fun () ->
      matmul a b);
  expect_invalid_naming "scale_rows" [ "Csr.scale_rows"; "5"; "6" ]
    (fun () -> scale_rows a short);
  Alcotest.(check (array (float 0.0))) "in-range spmv"
    [| 2.0; 2.0; 1.0; 1.0; 2.0; 2.0 |]
    (spmv a x)

let test_stats_guards () =
  let open Icoe_util.Stats in
  expect_invalid_naming "min_max" [ "Stats.min_max"; "empty" ] (fun () ->
      min_max [||]);
  expect_invalid_naming "percentile, empty" [ "Stats.percentile"; "empty" ]
    (fun () -> percentile [||] 0.5);
  expect_invalid_naming "percentile, p" [ "Stats.percentile"; "1.5" ]
    (fun () -> percentile_sorted [| 1.0 |] 1.5);
  expect_invalid_naming "percentile, nan" [ "Stats.percentile"; "nan" ]
    (fun () -> percentile_sorted [| 1.0 |] Float.nan);
  expect_invalid_naming "rel_l2_error" [ "Stats.rel_l2_error"; "3"; "2" ]
    (fun () -> rel_l2_error [| 1.0; 2.0; 3.0 |] [| 1.0; 2.0 |]);
  expect_invalid_naming "max_abs_diff" [ "Stats.max_abs_diff"; "2"; "3" ]
    (fun () -> max_abs_diff [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 0.0)) "max_abs_diff" 1.0
    (max_abs_diff [| 1.0; 2.0 |] [| 1.0; 3.0 |])

(* the SIMP kernels read their vectors unchecked: the grid is
   validated once, at creation *)
let test_topopt_create_guards () =
  let create ?volfrac nx ny () = ignore (Opt.Topopt.create ?volfrac ~nx ~ny ()) in
  expect_invalid_naming "nx 0" [ "Topopt.create"; "0x4"; "nx" ] (create 0 4);
  expect_invalid_naming "ny -1" [ "Topopt.create"; "3x-1"; "ny" ] (create 3 (-1));
  List.iter
    (fun v ->
      expect_invalid_naming (Fmt.str "volfrac %g" v)
        [ "Topopt.create"; Fmt.str "volfrac = %g" v ]
        (create ~volfrac:v 3 3))
    [ 0.0; -0.1; 1.5; Float.nan; Float.infinity ];
  create ~volfrac:1.0 1 1 ()

(* the SIMP operator reads its vectors unchecked, and as distinct
   arrays, past one length and one aliasing test *)
let test_topopt_apply_guard () =
  let s = Opt.Topopt.stencil (Opt.Topopt.create ~nx:3 ~ny:2 ()) in
  expect_invalid_naming "apply" [ "Topopt.apply"; "5"; "6"; "3x2" ]
    (fun () -> Opt.Topopt.apply s (Array.make 5 0.0) (Array.make 6 0.0));
  let u = Array.make 6 1.0 and y = Array.make 6 0.0 in
  expect_invalid_naming "aliased" [ "Topopt.apply"; "same array" ] (fun () ->
      Opt.Topopt.apply s u u);
  Opt.Topopt.apply s u y;
  Alcotest.(check bool) "constant field: sinks 1, elsewhere 0" true
    (Array.for_all (fun v -> v = 0.0 || v = 1.0) y)

(* --- sundials --- *)

let test_bdf_too_much_work () =
  (* finite-time blow-up ODE with a tiny step cap must raise, not hang *)
  let rhs _t y = [| y.(0) *. y.(0) |] in
  let jac _t y = Linalg.Dense.init 1 1 (fun _ _ -> 2.0 *. y.(0)) in
  Alcotest.(check bool) "raises Too_much_work" true
    (match
       Sundials.Cvode.bdf ~rtol:1e-10 ~atol:1e-12 ~max_steps:50 ~rhs
         ~lsolve:(Sundials.Cvode.dense_lsolve ~jac) ~t0:0.0 ~y0:[| 1.0 |]
         2.0
     with
    | _ -> false
    | exception Sundials.Cvode.Too_much_work _ -> true)

(* --- fft / vbl --- *)

let test_fft_rejects_non_pow2 () =
  expect_invalid_naming "non-power-of-2" [ "Fft.transform"; "24" ] (fun () ->
      Fftlib.Fft.transform (Array.make (2 * 12) 0.0));
  expect_invalid_naming "odd length" [ "Fft.transform"; "9" ] (fun () ->
      Fftlib.Fft.transform (Array.make 9 0.0));
  expect_invalid_naming "2d size" [ "Fft.transform_2d"; "30"; "4" ] (fun () ->
      Fftlib.Fft.transform_2d ~n:4 (Array.make 30 0.0))

let test_beam_rejects_non_pow2 () =
  expect_invalid_naming "beam grid" [ "Beam.create"; "100" ] (fun () ->
      Vbl.Beam.create ~n:100 ~width:0.1 ())

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

(* a NaN arrival or duration never comes due: the event loop used to
   run forever on one; it must raise, naming the job *)
let test_scheduler_rejects_nan_times () =
  let job id arrival duration = { Opt.Scheduler.id; arrival; duration; gpus = 1 } in
  expect_invalid_naming "nan arrival" [ "Scheduler.Core.run"; "job #1"; "NaN arrival" ]
    (fun () ->
      Opt.Scheduler.simulate ~gpus:2 Opt.Scheduler.Fcfs
        [ job 0 0.0 1.0; job 1 Float.nan 1.0 ]);
  expect_invalid_naming "nan duration"
    [ "Scheduler.Core.run"; "job #0"; "NaN service time" ] (fun () ->
      Opt.Scheduler.simulate ~gpus:2 Opt.Scheduler.Fcfs
        [ job 0 0.0 Float.nan; job 1 0.0 1.0 ])

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
  expect_invalid_naming "n must be 2^k - 1" [ "Pfmg.create"; "10" ] (fun () ->
      Hypre.Pfmg.create 10);
  expect_invalid_naming "n >= 1" [ "Pfmg.create"; "0" ] (fun () ->
      Hypre.Pfmg.create 0)

let test_struct_solver_rejects_bad_size () =
  (* a level without interior cells would price sweeps of a phantom cell;
     these are the 1 x 1, 2 x 5 and 5 x 2 grids with their walls *)
  expect_invalid_naming "-1 x -1" [ "Pfmg.create_level"; "-1 x -1" ] (fun () ->
      Hypre.Pfmg.create_level (-1) (-1));
  expect_invalid_naming "0 x 3" [ "Pfmg.create_level"; "0 x 3" ] (fun () ->
      Hypre.Pfmg.create_level 0 3);
  expect_invalid_naming "3 x 0" [ "Pfmg.create_level"; "3 x 0" ] (fun () ->
      Hypre.Pfmg.create_level 3 0)

let test_boxloop_rejects_inverted_box () =
  expect_invalid_naming "inverted box" [ "Box.make"; "[5, 2]" ] (fun () ->
      Samrai.Box.make ~ilo:5 ~jlo:0 ~ihi:2 ~jhi:3)

(* --- linalg regression: unguarded curvature division in cg --- *)

let test_cg_singular_projection_stays_finite () =
  (* A projection operator that zeroes the last component is singular; with
     b = e_last the very first search direction has p^T A p = 0.  The
     unguarded alpha = rr / pap division poisoned x with inf/nan; the guard
     must bail immediately with a finite x and converged = false. *)
  let n = 6 in
  let op x y = Array.iteri (fun i v -> y.(i) <- (if i = n - 1 then 0.0 else v)) x in
  let b = Array.init n (fun i -> if i = n - 1 then 1.0 else 0.0) in
  let r = Linalg.Krylov.cg ~max_iter:20 ~op b (Array.make n 0.0) in
  Alcotest.(check bool) "not converged" false r.Linalg.Krylov.converged;
  Array.iter
    (fun v ->
      Alcotest.(check bool) "x stays finite" true (Float.is_finite v))
    r.Linalg.Krylov.x

(* --- util --- *)

let test_rng_int_zero () =
  expect_invalid_naming "n must be positive" [ "Rng.int"; "0" ] (fun () ->
      Icoe_util.Rng.int (Icoe_util.Rng.create 1) 0)

(* the Rng input guards: Invalid_argument naming the function and the
   offending value, NaN included *)
let test_rng_guards () =
  let open Icoe_util.Rng in
  let r = create 1 in
  expect_invalid_naming "int, negative" [ "Rng.int"; "-3" ] (fun () -> int r (-3));
  expect_invalid_naming "exponential, zero" [ "Rng.exponential"; "0" ]
    (fun () -> exponential r ~rate:0.0);
  expect_invalid_naming "exponential, nan" [ "Rng.exponential"; "nan" ]
    (fun () -> exponential r ~rate:Float.nan);
  expect_invalid_naming "categorical_from, u = 1" [ "Rng.categorical_from"; "u = 1" ]
    (fun () -> categorical_from 1.0 [| 1.0 |]);
  expect_invalid_naming "categorical_from, u nan"
    [ "Rng.categorical_from"; "u = nan" ] (fun () -> categorical_from Float.nan [| 1.0 |]);
  expect_invalid_naming "categorical_from, zero total"
    [ "Rng.categorical_from"; "sum to 0" ] (fun () -> categorical_from 0.5 [| 0.0; 0.0 |]);
  expect_invalid_naming "categorical, empty" [ "Rng.categorical_from"; "sum to 0" ]
    (fun () -> categorical r [||])

let test_table_row_arity () =
  let t = Icoe_util.Table.create ~title:"t" [ "a"; "b" ] in
  expect_invalid_naming "wrong arity" [ "Table.add_row"; "1 cells"; "2 columns" ]
    (fun () -> Icoe_util.Table.add_row t [ "only one" ])

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
  expect_invalid_naming "negative flops" [ "Kernel.make"; "bad"; "-1" ] (fun () ->
      Hwsim.Kernel.make ~name:"bad" ~flops:(-1.0) ~bytes:0.0 ());
  expect_invalid_naming "nan bytes" [ "Kernel.make"; "nan" ] (fun () ->
      Hwsim.Kernel.make ~name:"bad" ~flops:0.0 ~bytes:nan ())

(* the transfer and span entry points reject negative and NaN sizes with
   the function and the value in the message *)
let test_transfer_guards () =
  let l = Hwsim.Link.nvlink2 in
  List.iter
    (fun bytes ->
      let v = Fmt.str "%g" bytes in
      expect_invalid_naming "transfer_time" [ "Link.transfer_time"; v ] (fun () ->
          Hwsim.Link.transfer_time l ~bytes);
      expect_invalid_naming "unified_memory_transfer"
        [ "Link.unified_memory_transfer"; v ] (fun () ->
          Hwsim.Link.unified_memory_transfer ~link:l ~bytes);
      expect_invalid_naming "path_time" [ "Topology.path_time"; v ] (fun () ->
          Hwsim.Topology.path_time
            Hwsim.Node.frontier.Hwsim.Node.topology ~level:1 ~bytes))
    [ -1.0; nan ];
  let tr = Hwsim.Trace.create (Hwsim.Clock.create ()) in
  expect_invalid_naming "scheduled_span" [ "Trace.scheduled_span"; "x"; "-2" ]
    (fun () -> Hwsim.Trace.scheduled_span tr ~phase:"x" ~start:0.0 (-2.0))

let test_clock_rejects_negative_tick () =
  let c = Hwsim.Clock.create () in
  expect_invalid_naming "negative dt" [ "Clock.tick"; "-1" ] (fun () ->
      Hwsim.Clock.tick c ~phase:"x" (-1.0))

let test_clock_guards () =
  let c = Hwsim.Clock.create () in
  expect_invalid_naming "tick, nan" [ "Clock.tick"; "nan" ] (fun () ->
      Hwsim.Clock.tick c ~phase:"x" Float.nan);
  expect_invalid_naming "attribute" [ "Clock.attribute"; "-0.5" ] (fun () ->
      Hwsim.Clock.attribute c ~phase:"x" (-0.5));
  expect_invalid_naming "advance" [ "Clock.advance"; "-2" ] (fun () ->
      Hwsim.Clock.advance c (-2.0));
  Alcotest.(check (float 0.0)) "rejected charges leave the clock" 0.0
    (Hwsim.Clock.total c);
  Alcotest.(check (list (pair string (float 0.0)))) "no phase recorded" []
    (Hwsim.Clock.breakdown c)

let test_roofline_guards () =
  let open Hwsim in
  expect_invalid_naming "eff compute" [ "Roofline.eff"; "compute = 1.5" ]
    (fun () -> Roofline.eff ~compute:1.5 ());
  expect_invalid_naming "eff compute nan" [ "Roofline.eff"; "compute = nan" ]
    (fun () -> Roofline.eff ~compute:Float.nan ());
  expect_invalid_naming "eff bandwidth" [ "Roofline.eff"; "bandwidth = 0" ]
    (fun () -> Roofline.eff ~bandwidth:0.0 ());
  let k = Kernel.make ~name:"k" ~flops:1e9 ~bytes:1e9 () in
  let lanes = string_of_int Device.power9.Device.lanes in
  expect_invalid_naming "lanes_used 0"
    [ "Roofline.time_and_bound"; "lanes_used = 0"; "1.." ^ lanes ] (fun () ->
      Roofline.time ~lanes_used:0 Device.power9 k);
  expect_invalid_naming "lanes_used too many"
    [ "Roofline.time_and_bound"; "lanes_used = 1000"; Device.power9.Device.name ]
    (fun () -> Roofline.time_and_bound ~lanes_used:1000 Device.power9 k)

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
  expect_invalid_naming "needs >= 2 levels" [ "Atomic.ladder"; "1" ] (fun () ->
      Cretin.Atomic.ladder 1)

(* --- entry points that used to [assert] --- *)

let test_pool_guards () =
  let p = Prog.Pool.create "edge" in
  let clock = Hwsim.Clock.create () in
  expect_invalid_naming "alloc" [ "Pool.alloc"; "-1" ] (fun () ->
      Prog.Pool.alloc p ~bytes:(-1.0) ~clock);
  expect_invalid_naming "free" [ "Pool.free"; "nan" ] (fun () ->
      Prog.Pool.free p ~bytes:Float.nan)

let test_lbann_guards () =
  expect_invalid_naming "weak scaling" [ "Lbann.weak_scaling_throughput"; "2"; "4" ]
    (fun () -> Dlearn.Lbann.weak_scaling_throughput ~total_gpus:2 ~g:4);
  expect_invalid_naming "strong scaling" [ "Lbann.group_time"; "g = 0" ] (fun () ->
      Dlearn.Lbann.strong_scaling_speedup 0)

let test_sw4_step_model_nodes () =
  let m = Hwsim.Node.sierra in
  let over = m.Hwsim.Node.nodes + 1 in
  List.iter
    (fun nodes ->
      expect_invalid_naming "nodes"
        [ "Scenario.production_step_model"; Printf.sprintf "nodes = %d" nodes ]
        (fun () -> Sw4.Scenario.production_step_model m ~nodes ~grid_points:1e9))
    [ 0; over ]

let test_counters_sample_monotone () =
  let c = Hwsim.Counters.create Hwsim.Device.power9 in
  Hwsim.Counters.sample c ~time:1.0 ~bytes:10.0;
  expect_invalid_naming "time back" [ "Counters.sample"; "time 0.5" ] (fun () ->
      Hwsim.Counters.sample c ~time:0.5 ~bytes:20.0);
  expect_invalid_naming "bytes back" [ "Counters.sample"; "bytes 5" ] (fun () ->
      Hwsim.Counters.sample c ~time:2.0 ~bytes:5.0)

(* --- mfem --- *)

let test_mfem_size_guards () =
  expect_invalid_naming "mesh" [ "Mesh.create"; "nx = 0" ] (fun () ->
      Mfem.Mesh.create ~nx:0 ~ny:2 ~p:2 ());
  let mesh = Mfem.Mesh.create ~nx:2 ~ny:2 ~p:2 () in
  expect_invalid_naming "local node" [ "Mesh.global_dof"; "(3, 0)"; "2" ] (fun () ->
      Mfem.Mesh.global_dof mesh ~ex:0 ~ey:0 ~i:3 ~j:0);
  expect_invalid_naming "basis" [ "Basis.create"; "0" ] (fun () ->
      Mfem.Basis.create 0);
  expect_invalid_naming "collocated basis" [ "Basis.create_collocated"; "0" ]
    (fun () -> Mfem.Basis.create_collocated 0);
  expect_invalid_naming "gauss" [ "Quadrature.gauss_legendre"; "0" ] (fun () ->
      Mfem.Quadrature.gauss_legendre 0);
  expect_invalid_naming "lobatto" [ "Quadrature.gauss_lobatto"; "1" ] (fun () ->
      Mfem.Quadrature.gauss_lobatto 1)

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

(* --- fault plans: a zero, negative or NaN mean time between failures is
   rejected by name before any arrival stream is drawn --- *)

let test_fault_plan_bad_mtbf () =
  let module P = Icoe_fault.Plan in
  let c = P.default_config in
  List.iter
    (fun (name, cfg) ->
      List.iter
        (fun v ->
          expect_invalid_naming (Fmt.str "%s = %g" name v)
            [ "Plan.generate"; name ]
            (fun () -> P.generate ~seed:1 (cfg v)))
        [ 0.0; -5.0; Float.nan ])
    [
      ("node_mtbf_s", fun v -> { c with P.node_mtbf_s = v });
      ("link_mtbf_s", fun v -> { c with P.link_mtbf_s = v });
      ("straggler_mtbf_s", fun v -> { c with P.straggler_mtbf_s = v });
      ("kernel_fault_mtbf_s", fun v -> { c with P.kernel_fault_mtbf_s = v });
    ];
  (* infinity still disables a class *)
  ignore (P.generate ~seed:1 { c with P.link_mtbf_s = infinity })

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

(* an empty batch has no mean loss: after a real step, whose momentum
   would move the parameters again, the empty call is rejected and
   leaves the model as it was *)
let test_mlp_empty_train_batch () =
  let m = mlp () in
  let x = [| 0.1; 0.2; 0.3 |] in
  ignore (Dlearn.Mlp.train_batch ~momentum:0.9 m ~lr:0.1 [| x; x |] [| 0; 1 |]);
  let before = Dlearn.Mlp.get_params m in
  expect_invalid_naming "empty batch" [ "Mlp.train_batch"; "no examples" ]
    (fun () -> Dlearn.Mlp.train_batch ~momentum:0.9 m ~lr:0.1 [||] [||]);
  Alcotest.(check bool) "params untouched" true
    (before = Dlearn.Mlp.get_params m)

(* Mlp.batch checks the set it packs; Mlp.step checks the model against
   the batch, and a rejected step leaves the model as it was *)
let test_mlp_packed_batch () =
  let x = [| 0.1; 0.2; 0.3 |] in
  List.iter
    (fun (name, parts, xs, ls) ->
      expect_invalid_naming name ("Mlp.batch" :: parts) (fun () ->
          Dlearn.Mlp.batch xs ls))
    [
      ("2 inputs, 1 label", [ "2"; "1" ], [| x; x |], [| 0 |]);
      ("1 input, 2 labels", [ "1"; "2" ], [| x |], [| 0; 1 |]);
      ("no examples", [], [||], [||]);
      ("ragged rows", [ "input 1"; "2"; "3" ], [| x; [| 0.1; 0.2 |] |], [| 0; 1 |]);
      ("zero-width rows", [ "0" ], [| [||]; [||] |], [| 0; 1 |]);
      ("negative label", [ "-1" ], [| x; x |], [| 0; -1 |]);
    ];
  let m = mlp () in
  let before = Dlearn.Mlp.get_params m in
  List.iter
    (fun (name, parts, xs, ls) ->
      expect_invalid_naming name ("Mlp.step" :: parts) (fun () ->
          Dlearn.Mlp.step ~momentum:0.9 m ~lr:0.1 (Dlearn.Mlp.batch xs ls)))
    [
      ("width 2 for 3 inputs", [ "2"; "3" ], [| [| 0.1; 0.2 |] |], [| 0 |]);
      ("width 4 for 3 inputs", [ "4"; "3" ], [| Array.make 4 0.5 |], [| 0 |]);
      ("label = classes", [ "2" ], [| x; x; x |], [| 0; 2; 1 |]);
    ];
  Alcotest.(check bool) "params untouched" true
    (before = Dlearn.Mlp.get_params m);
  (* and the model still trains *)
  Dlearn.Mlp.step ~momentum:0.9 m ~lr:0.1 (Dlearn.Mlp.batch [| x; x |] [| 0; 1 |]);
  Alcotest.(check bool) "a good step moves the params" true
    (before <> Dlearn.Mlp.get_params m)

let test_asgd_negative_staleness () =
  let data =
    Dlearn.Distributed.make_task ~rng:(Icoe_util.Rng.create 1) ~n:32 ()
  in
  expect_invalid_naming "staleness -1" [ "Distributed.asgd"; "-1" ] (fun () ->
      Dlearn.Distributed.asgd ~rng:(Icoe_util.Rng.create 1) ~learners:2
        ~steps:1 ~batch:4 ~lr:0.1 ~staleness:(-1) [| 12; 4 |] data)

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

let test_cleverleaf_bad_extent () =
  let create ?(lx = 1.0) ?(ly = 1.0) () () =
    Samrai.Cleverleaf.create ~nx:8 ~ny:8 ~lx ~ly ()
  in
  List.iter
    (fun v ->
      expect_invalid_naming (Fmt.str "lx = %g" v) [ "Cleverleaf.create"; "lx" ]
        (create ~lx:v ());
      expect_invalid_naming (Fmt.str "ly = %g" v) [ "Cleverleaf.create"; "ly" ]
        (create ~ly:v ()))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -1.0 ];
  ignore (create ~lx:2.0 ~ly:0.5 () ())

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

(* a cell outside a 4x4 patch's ghosted box *)
let test_patch_get_guard () =
  let p = Samrai.Patch.create (Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:3 ~jhi:3) in
  Samrai.Patch.alloc_field p "u";
  expect_invalid_naming "get" [ "Patch.get"; "(40, 0)" ] (fun () ->
      Samrai.Patch.get p "u" ~i:40 ~j:0);
  Alcotest.(check (float 0.0)) "ghost cell reads" 0.0
    (Samrai.Patch.get p "u" ~i:(-2) ~j:5)

let test_patch_set_guard () =
  let p = Samrai.Patch.create (Samrai.Box.make ~ilo:0 ~jlo:0 ~ihi:3 ~jhi:3) in
  Samrai.Patch.alloc_field p "u";
  expect_invalid_naming "set" [ "Patch.set"; "(40, 0)" ] (fun () ->
      Samrai.Patch.set p "u" ~i:40 ~j:0 1.0);
  Samrai.Patch.set p "u" ~i:5 ~j:(-2) 2.5;
  Alcotest.(check (float 0.0)) "ghost cell written" 2.5
    (Samrai.Patch.get p "u" ~i:5 ~j:(-2))

let () =
  Alcotest.run "edge_cases"
    [
      ( "linalg",
        [
          Alcotest.test_case "cg nonconvergence" `Quick test_cg_nonconvergence_reported;
          Alcotest.test_case "singular" `Quick test_dense_singular_exception;
          Alcotest.test_case "triplet bounds" `Quick test_csr_triplet_bounds;
          Alcotest.test_case "cg singular projection" `Quick
            test_cg_singular_projection_stays_finite;
          Alcotest.test_case "vec length guards" `Quick test_vec_length_guards;
          Alcotest.test_case "dense size guards" `Quick test_dense_size_guards;
          Alcotest.test_case "cg length guard" `Quick test_cg_length_guard;
          Alcotest.test_case "csr size guards" `Quick test_csr_size_guards;
          Alcotest.test_case "stats guards" `Quick test_stats_guards;
          Alcotest.test_case "topopt apply guard" `Quick test_topopt_apply_guard;
          Alcotest.test_case "topopt create guards" `Quick test_topopt_create_guards;
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
          Alcotest.test_case "nan times" `Quick test_scheduler_rejects_nan_times;
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
          Alcotest.test_case "struct solver size" `Quick
            test_struct_solver_rejects_bad_size;
        ] );
      ( "util",
        [
          Alcotest.test_case "rng int 0" `Quick test_rng_int_zero;
          Alcotest.test_case "rng guards" `Quick test_rng_guards;
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
          Alcotest.test_case "transfer guards" `Quick test_transfer_guards;
          Alcotest.test_case "negative tick" `Quick test_clock_rejects_negative_tick;
          Alcotest.test_case "clock guards" `Quick test_clock_guards;
          Alcotest.test_case "roofline guards" `Quick test_roofline_guards;
          Alcotest.test_case "counters equal timestamps" `Quick
            test_counters_series_equal_timestamps;
        ] );
      ("cretin", [ Alcotest.test_case "tiny ladder" `Quick test_cretin_tiny_ladder_rejected ]);
      ("mfem", [ Alcotest.test_case "size guards" `Quick test_mfem_size_guards ]);
      ("ddcmd", [ Alcotest.test_case "bad box" `Quick test_particles_bad_box ]);
      ( "dlearn",
        [
          Alcotest.test_case "mlp bad sizes" `Quick test_mlp_bad_sizes;
          Alcotest.test_case "mlp bad input" `Quick test_mlp_bad_input;
          Alcotest.test_case "mlp batch length mismatch" `Quick
            test_mlp_batch_length_mismatch;
          Alcotest.test_case "mlp empty train batch" `Quick
            test_mlp_empty_train_batch;
          Alcotest.test_case "mlp packed batch and step" `Quick
            test_mlp_packed_batch;
          Alcotest.test_case "asgd negative staleness" `Quick
            test_asgd_negative_staleness;
        ] );
      ( "engine sizes",
        [
          Alcotest.test_case "sw4 grid" `Quick test_sw4_grid_bad_sizes;
          Alcotest.test_case "cardioid monodomain" `Quick
            test_monodomain_bad_sizes;
          Alcotest.test_case "cleverleaf extent" `Quick
            test_cleverleaf_bad_extent;
          Alcotest.test_case "ddcmd particles" `Quick test_particles_bad_sizes;
          Alcotest.test_case "ddcmd engine dt" `Quick test_md_engine_bad_dt;
        ] );
      ( "entry guards",
        [
          Alcotest.test_case "pool bytes" `Quick test_pool_guards;
          Alcotest.test_case "lbann scaling" `Quick test_lbann_guards;
          Alcotest.test_case "sw4 step model nodes" `Quick test_sw4_step_model_nodes;
          Alcotest.test_case "counters sample" `Quick test_counters_sample_monotone;
          Alcotest.test_case "patch get" `Quick test_patch_get_guard;
          Alcotest.test_case "patch set" `Quick test_patch_set_guard;
          Alcotest.test_case "fault plan mtbf" `Quick test_fault_plan_bad_mtbf;
        ] );
      ( "cost models",
        [
          Alcotest.test_case "sw4 pricing from sizes" `Quick
            test_sw4_pricing_from_sizes;
        ] );
    ]
