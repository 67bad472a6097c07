(* Tests for the SUNDIALS analog: CVODE-style integrators. *)

(* --- integrators on analytic problems --- *)

(* y' = -y, y(0)=1, y(t) = e^{-t} *)
let decay_rhs _t y = Array.map (fun v -> -.v) y
let decay_jac _t y =
  Linalg.Dense.init (Array.length y) (Array.length y) (fun i j ->
      if i = j then -1.0 else 0.0)

let test_bdf_decay () =
  let steps0 =
    Option.value ~default:0.0
      (Icoe_obs.Metrics.value ~labels:[ ("method", "bdf") ] "cvode_steps_total")
  in
  let r =
    Sundials.Cvode.bdf ~rtol:1e-8 ~atol:1e-10 ~rhs:decay_rhs
      ~lsolve:(Sundials.Cvode.dense_lsolve ~jac:decay_jac)
      ~t0:0.0 ~y0:[| 1.0 |] 2.0
  in
  Alcotest.(check bool) "accurate" true
    (Float.abs (r.Sundials.Cvode.y.(0) -. exp (-2.0)) < 1e-6);
  Alcotest.(check bool) "took steps" true (r.Sundials.Cvode.stats.Sundials.Cvode.nsteps > 5);
  (* the metrics registry must agree with the integrator's own stats *)
  Alcotest.(check (float 1e-9)) "registry counted the steps"
    (float_of_int r.Sundials.Cvode.stats.Sundials.Cvode.nsteps)
    (Option.value ~default:0.0
       (Icoe_obs.Metrics.value ~labels:[ ("method", "bdf") ] "cvode_steps_total")
    -. steps0)

let test_bdf_tolerance_scaling () =
  let run rtol =
    let r =
      Sundials.Cvode.bdf ~rtol ~atol:(rtol /. 100.0) ~rhs:decay_rhs
        ~lsolve:(Sundials.Cvode.dense_lsolve ~jac:decay_jac)
        ~t0:0.0 ~y0:[| 1.0 |] 1.0
    in
    Float.abs (r.Sundials.Cvode.y.(0) -. exp (-1.0))
  in
  let loose = run 1e-4 and tight = run 1e-9 in
  Alcotest.(check bool) "tighter tol -> smaller error" true (tight < loose)

(* stiff linear problem: y' = -1000 (y - cos t) - sin t; y = cos t is the
   slow manifold. *)
let stiff_rhs t y = [| (-1000.0 *. (y.(0) -. cos t)) -. sin t |]
let stiff_jac _t _y = Linalg.Dense.init 1 1 (fun _ _ -> -1000.0)

let test_bdf_stiff () =
  let r =
    Sundials.Cvode.bdf ~rtol:1e-6 ~atol:1e-9 ~h0:1e-5 ~rhs:stiff_rhs
      ~lsolve:(Sundials.Cvode.dense_lsolve ~jac:stiff_jac)
      ~t0:0.0 ~y0:[| 0.0 |] 3.0
  in
  Alcotest.(check bool) "tracks slow manifold" true
    (Float.abs (r.Sundials.Cvode.y.(0) -. cos 3.0) < 1e-4);
  (* stiff solver must use far fewer steps than the explicit stability
     limit (h < 2/1000 -> 1500 steps) *)
  Alcotest.(check bool) "beats explicit step bound" true
    (r.Sundials.Cvode.stats.Sundials.Cvode.nsteps < 1200)

let test_adams_oscillator () =
  (* y'' = -y as a system; energy must be approximately conserved *)
  let rhs _t y = [| y.(1); -.y.(0) |] in
  let r =
    Sundials.Cvode.adams ~rtol:1e-8 ~atol:1e-10 ~rhs ~t0:0.0 ~y0:[| 1.0; 0.0 |]
      (2.0 *. Float.pi)
  in
  Alcotest.(check bool) "period return y" true
    (Float.abs (r.Sundials.Cvode.y.(0) -. 1.0) < 1e-4);
  Alcotest.(check bool) "period return y'" true
    (Float.abs r.Sundials.Cvode.y.(1) < 1e-4)

(* Robertson problem: the classic stiff kinetics benchmark. *)
let robertson_rhs _t y =
  let a = -0.04 *. y.(0) +. (1e4 *. y.(1) *. y.(2)) in
  let c = 3e7 *. y.(1) *. y.(1) in
  [| a; -.a -. c; c |]

let robertson_jac _t y =
  let j = Linalg.Dense.create 3 3 in
  Linalg.Dense.set j 0 0 (-0.04);
  Linalg.Dense.set j 0 1 (1e4 *. y.(2));
  Linalg.Dense.set j 0 2 (1e4 *. y.(1));
  Linalg.Dense.set j 1 0 0.04;
  Linalg.Dense.set j 1 1 ((-1e4 *. y.(2)) -. (6e7 *. y.(1)));
  Linalg.Dense.set j 1 2 (-1e4 *. y.(1));
  Linalg.Dense.set j 2 1 (6e7 *. y.(1));
  j

let test_bdf_robertson_conservation () =
  let r =
    Sundials.Cvode.bdf ~rtol:1e-6 ~atol:1e-12 ~h0:1e-6 ~rhs:robertson_rhs
      ~lsolve:(Sundials.Cvode.dense_lsolve ~jac:robertson_jac)
      ~t0:0.0 ~y0:[| 1.0; 0.0; 0.0 |] 100.0
  in
  let total = r.Sundials.Cvode.y.(0) +. r.Sundials.Cvode.y.(1) +. r.Sundials.Cvode.y.(2) in
  Alcotest.(check bool) "mass conserved" true (Float.abs (total -. 1.0) < 1e-6);
  Alcotest.(check bool) "species order" true
    (r.Sundials.Cvode.y.(0) > 0.5 && r.Sundials.Cvode.y.(1) < 1e-3)

let test_erk23_accuracy_and_adaptivity () =
  let r =
    Sundials.Cvode.erk23 ~rtol:1e-8 ~atol:1e-10 ~rhs:decay_rhs ~t0:0.0
      ~y0:[| 1.0 |] 2.0
  in
  Alcotest.(check bool) "accurate" true
    (Float.abs (r.Sundials.Cvode.y.(0) -. exp (-2.0)) < 1e-7);
  (* tolerance scaling *)
  let err rtol =
    let r =
      Sundials.Cvode.erk23 ~rtol ~atol:(rtol /. 100.0) ~rhs:decay_rhs ~t0:0.0
        ~y0:[| 1.0 |] 1.0
    in
    Float.abs (r.Sundials.Cvode.y.(0) -. exp (-1.0))
  in
  Alcotest.(check bool) "tighter tol, smaller error" true (err 1e-10 < err 1e-4)

let test_erk23_oscillator_order () =
  (* the 3rd-order method needs far fewer steps than Euler stability would
     suggest, and lands the oscillator period accurately *)
  let rhs _t y = [| y.(1); -.y.(0) |] in
  let r =
    Sundials.Cvode.erk23 ~rtol:1e-9 ~atol:1e-12 ~rhs ~t0:0.0 ~y0:[| 1.0; 0.0 |]
      (2.0 *. Float.pi)
  in
  Alcotest.(check bool) "period return" true
    (Float.abs (r.Sundials.Cvode.y.(0) -. 1.0) < 1e-6);
  (* 3rd-order at rtol 1e-9 needs ~2-3k steps on one period *)
  Alcotest.(check bool) "reasonable step count" true
    (r.Sundials.Cvode.stats.Sundials.Cvode.nsteps < 6000
    && r.Sundials.Cvode.stats.Sundials.Cvode.nsteps > 100)

let prop_bdf_linear_systems =
  QCheck.Test.make ~name:"BDF solves random stable linear systems" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let n = 2 + Icoe_util.Rng.int rng 3 in
      (* random stable diagonal system with decay rates in [0.5, 5] *)
      let rates = Array.init n (fun _ -> Icoe_util.Rng.uniform rng 0.5 5.0) in
      let rhs _t y = Array.mapi (fun i v -> -.rates.(i) *. v) y in
      let jac _t _y =
        Linalg.Dense.init n n (fun i j -> if i = j then -.rates.(i) else 0.0)
      in
      let y0 = Array.make n 1.0 in
      let r =
        Sundials.Cvode.bdf ~rtol:1e-7 ~atol:1e-10 ~rhs
          ~lsolve:(Sundials.Cvode.dense_lsolve ~jac) ~t0:0.0 ~y0 1.0
      in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if Float.abs (v -. exp (-.rates.(i))) > 1e-5 then ok := false)
        r.Sundials.Cvode.y;
      !ok)

let () =
  Alcotest.run "sundials"
    [
      ( "cvode",
        [
          Alcotest.test_case "bdf decay" `Quick test_bdf_decay;
          Alcotest.test_case "bdf tolerance" `Quick test_bdf_tolerance_scaling;
          Alcotest.test_case "bdf stiff" `Quick test_bdf_stiff;
          Alcotest.test_case "adams oscillator" `Quick test_adams_oscillator;
          Alcotest.test_case "robertson" `Quick test_bdf_robertson_conservation;
          Alcotest.test_case "erk23 accuracy" `Quick test_erk23_accuracy_and_adaptivity;
          Alcotest.test_case "erk23 oscillator" `Quick test_erk23_oscillator_order;
          QCheck_alcotest.to_alcotest prop_bdf_linear_systems;
        ] );
    ]
