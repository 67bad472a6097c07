(* Tests for the Cardioid analog: Melodee DSL transforms, the ionic model,
   and the monodomain tissue solver with its placement study. *)

open Cardioid

let check_float = Alcotest.(check (float 1e-9))

(* --- melodee --- *)

let test_eval_basic () =
  let e = Melodee.(Add (Mul (Var 0, Const 2.0), Exp (Const 0.0))) in
  check_float "2x + e^0" 7.0 (Melodee.eval [| 3.0 |] e)

let test_compile_matches_eval () =
  let rng = Icoe_util.Rng.create 51 in
  let e =
    Melodee.(
      Div
        ( Sub (Exp (Mul (Var 0, Const 0.3)), Const 1.0),
          Add (Const 1.0, Mul (Var 1, Var 1)) ))
  in
  let f = Melodee.compile e in
  for _ = 1 to 50 do
    let env = [| Icoe_util.Rng.uniform rng (-2.0) 2.0; Icoe_util.Rng.uniform rng (-2.0) 2.0 |] in
    check_float "compiled = eval" (Melodee.eval env e) (f env)
  done

let test_constant_fold () =
  let e = Melodee.(Add (Mul (Const 2.0, Const 3.0), Var 0)) in
  (match Melodee.constant_fold e with
  | Melodee.Add (Melodee.Const 6.0, Melodee.Var 0) -> ()
  | _ -> Alcotest.fail "fold failed");
  (* folding reduces op count *)
  let big = Melodee.(Mul (Exp (Const 1.0), Add (Var 0, Mul (Const 0.0, Var 1)))) in
  let folded = Melodee.constant_fold big in
  let c1, e1 = Melodee.op_count big in
  let c2, e2 = Melodee.op_count folded in
  Alcotest.(check bool) "fewer ops after fold" true (c2 + e2 < c1 + e1);
  Alcotest.(check int) "exp eliminated" 0 e2

let test_fold_preserves_semantics () =
  let rng = Icoe_util.Rng.create 52 in
  let e =
    Melodee.(
      Add
        ( Mul (Exp (Const 0.5), Var 0),
          Div (Const 3.0, Add (Const 1.0, Exp (Neg (Var 1)))) ))
  in
  let folded = Melodee.constant_fold e in
  for _ = 1 to 30 do
    let env = [| Icoe_util.Rng.uniform rng (-3.0) 3.0; Icoe_util.Rng.uniform rng (-3.0) 3.0 |] in
    Alcotest.(check (float 1e-12)) "fold preserves value"
      (Melodee.eval env e) (Melodee.eval env folded)
  done

let test_rational_fit_accuracy () =
  (* 4/4 rational approximation of exp on the model's range: relative error
     must be small enough for reaction kernels (the paper found it
     "essential for top performance" and accurate enough for physiology) *)
  let lo, hi = (-5.0, 5.0) in
  let p, q = Melodee.rational_fit ~lo ~hi ~np:4 ~nq:4 exp in
  let e = Melodee.Ratpoly (p, q, Melodee.Var 0) in
  let worst = ref 0.0 in
  for k = 0 to 200 do
    let x = lo +. (float_of_int k /. 200.0 *. (hi -. lo)) in
    let approx = Melodee.eval [| x |] e in
    let rel = Float.abs (approx -. exp x) /. exp x in
    if rel > !worst then worst := rel
  done;
  Alcotest.(check bool) (Fmt.str "worst rel err %.2e < 2%%" !worst) true (!worst < 0.02)

let test_variant_costs_descend () =
  (* rational replacement cuts flops; constant folding cuts loads *)
  let f_libm = Ionic.variant_flops Ionic.Libm in
  let f_rat = Ionic.variant_flops Ionic.Rational in
  Alcotest.(check bool) "rational cheaper than libm" true (f_rat < f_libm);
  let l_rat = Ionic.variant_loads Ionic.Rational in
  let l_fold = Ionic.variant_loads Ionic.Rational_folded in
  Alcotest.(check bool) "compile-time constants cut loads" true
    (l_fold * 3 < l_rat)

(* --- ionic model --- *)

let action_potential_stats trace =
  let peak = Array.fold_left max neg_infinity trace in
  let final = trace.(Array.length trace - 1) in
  (peak, final)

let test_action_potential_libm () =
  let deriv = Ionic.compile_variant Ionic.Libm in
  let trace = Ionic.single_cell_trace deriv in
  let peak, final = action_potential_stats trace in
  Alcotest.(check bool) "upstroke above 0 mV" true (peak > 0.0);
  Alcotest.(check bool) "repolarizes toward rest" true (final < -60.0);
  Alcotest.(check bool) "no blow-up" true (Array.for_all Float.is_finite trace)

let test_no_stimulus_stays_at_rest () =
  let deriv = Ionic.compile_variant Ionic.Libm in
  let trace = Ionic.single_cell_trace ~stim:0.0 deriv in
  Alcotest.(check bool) "stays near rest" true
    (Array.for_all (fun v -> Float.abs (v -. Ionic.v_rest) < 3.0) trace)

let test_rational_variant_matches_libm () =
  (* the DSL's rational replacement must not change the physiology *)
  let t_libm = Ionic.single_cell_trace (Ionic.compile_variant Ionic.Libm) in
  let t_rat = Ionic.single_cell_trace (Ionic.compile_variant Ionic.Rational) in
  let t_fold =
    Ionic.single_cell_trace (Ionic.compile_variant Ionic.Rational_folded)
  in
  let p1, _ = action_potential_stats t_libm in
  let p2, _ = action_potential_stats t_rat in
  let p3, _ = action_potential_stats t_fold in
  Alcotest.(check bool) "rational peak within 2 mV" true (Float.abs (p2 -. p1) < 2.0);
  Alcotest.(check (float 1e-9)) "folded = rational exactly" p2 p3

(* --- monodomain --- *)

let test_wave_propagation () =
  let m = Monodomain.create ~nx:24 ~ny:8 ~variant:Ionic.Libm () in
  Monodomain.stimulate m ~ilo:0 ~ihi:2 ~jlo:0 ~jhi:7 ~amplitude:60.0;
  (* sample densely: record first-activation step for near and far cells *)
  let near_t = ref (-1) and far_t = ref (-1) in
  for s = 1 to 40 do
    Monodomain.run m ~steps:25;
    if s = 6 then Monodomain.clear_stimulus m;
    if !near_t < 0 && Monodomain.activated m ~i:1 ~j:4 then near_t := s * 25;
    if !far_t < 0 && Monodomain.activated m ~i:23 ~j:4 then far_t := s * 25
  done;
  Alcotest.(check bool) "near end activated" true (!near_t >= 0);
  Alcotest.(check bool) "wave reached far end" true (!far_t >= 0);
  Alcotest.(check bool) "finite conduction delay" true (!far_t > !near_t);
  (* tissue returns to rest after the wave passes *)
  Monodomain.run m ~steps:4000;
  Alcotest.(check bool) "repolarized" false (Monodomain.activated m ~i:12 ~j:4)

let test_no_stimulus_no_wave () =
  let m = Monodomain.create ~nx:12 ~ny:12 ~variant:Ionic.Rational () in
  Monodomain.run m ~steps:2000;
  Alcotest.(check bool) "quiescent tissue stays quiet" false
    (Monodomain.activated m ~i:6 ~j:6)

let test_placement_all_gpu_wins () =
  (* Sec 4.1: data transfer costs make the split placement lose; the team
     moved everything to the GPU *)
  let cells = 1_000_000 in
  let t_gpu = Monodomain.time_per_step ~cells Monodomain.All_gpu in
  let t_split = Monodomain.time_per_step ~cells Monodomain.Split_cpu_gpu in
  let t_cpu = Monodomain.time_per_step ~cells Monodomain.All_cpu in
  Alcotest.(check bool) "all-gpu beats split" true (t_gpu < t_split);
  Alcotest.(check bool) "all-gpu beats cpu" true (t_gpu < t_cpu)

let test_rational_speeds_up_gpu_reaction () =
  let cells = 1_000_000 in
  let t_libm = Monodomain.time_per_step ~variant:Ionic.Libm ~cells Monodomain.All_gpu in
  let t_fold =
    Monodomain.time_per_step ~variant:Ionic.Rational_folded ~cells Monodomain.All_gpu
  in
  Alcotest.(check bool) "DSL variant faster end-to-end" true (t_fold < t_libm)

let prop_rational_fit_various_ranges =
  QCheck.Test.make ~name:"rational fit of exp accurate on random subranges"
    ~count:20
    QCheck.(pair (float_range (-8.0) 0.0) (float_range 0.5 6.0))
    (fun (lo, width) ->
      let hi = lo +. width in
      let p, q = Melodee.rational_fit ~lo ~hi ~np:4 ~nq:4 exp in
      let e = Melodee.Ratpoly (p, q, Melodee.Var 0) in
      let ok = ref true in
      for k = 0 to 50 do
        let x = lo +. (float_of_int k /. 50.0 *. (hi -. lo)) in
        let rel = Float.abs (Melodee.eval [| x |] e -. exp x) /. exp x in
        if rel > 0.05 then ok := false
      done;
      !ok)

let prop_reaction_bits_exact =
  (* the stack-program reaction kernel must match the boxed closure-tree
     oracle to the last bit, for random grids and stimuli *)
  QCheck.Test.make ~name:"reaction bit-identical to the oracle"
    ~count:15
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let nx = 8 + Icoe_util.Rng.int rng 16 in
      let ny = 6 + Icoe_util.Rng.int rng 12 in
      let ihi = Icoe_util.Rng.int rng nx in
      let jhi = Icoe_util.Rng.int rng ny in
      let amplitude = Icoe_util.Rng.uniform rng 20.0 80.0 in
      let steps = 1 + Icoe_util.Rng.int rng 3 in
      let mk () =
        let m = Monodomain.create ~nx ~ny () in
        Monodomain.stimulate m ~ilo:0 ~ihi ~jlo:0 ~jhi ~amplitude;
        m
      in
      let m_kern = mk () and m_ref = mk () in
      for _ = 1 to steps do
        Monodomain.reaction_step m_kern;
        Monodomain.reaction_step_ref m_ref
      done;
      let bits_eq a b =
        Array.for_all2
          (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          (Icoe_util.Fbuf.to_array a) (Icoe_util.Fbuf.to_array b)
      in
      bits_eq m_kern.Monodomain.state m_ref.Monodomain.state
      && bits_eq m_kern.Monodomain.v m_ref.Monodomain.v)

let () =
  Alcotest.run "cardioid"
    [
      ( "melodee",
        [
          Alcotest.test_case "eval" `Quick test_eval_basic;
          Alcotest.test_case "compile = eval" `Quick test_compile_matches_eval;
          Alcotest.test_case "constant fold" `Quick test_constant_fold;
          Alcotest.test_case "fold semantics" `Quick test_fold_preserves_semantics;
          Alcotest.test_case "rational fit" `Quick test_rational_fit_accuracy;
          Alcotest.test_case "variant costs" `Quick test_variant_costs_descend;
          QCheck_alcotest.to_alcotest prop_rational_fit_various_ranges;
        ] );
      ( "ionic",
        [
          Alcotest.test_case "action potential" `Quick test_action_potential_libm;
          Alcotest.test_case "rest stability" `Quick test_no_stimulus_stays_at_rest;
          Alcotest.test_case "variants agree" `Quick test_rational_variant_matches_libm;
        ] );
      ( "monodomain",
        [
          Alcotest.test_case "wave propagation" `Slow test_wave_propagation;
          Alcotest.test_case "quiescence" `Quick test_no_stimulus_no_wave;
          Alcotest.test_case "placement" `Quick test_placement_all_gpu_wins;
          Alcotest.test_case "DSL speedup" `Quick test_rational_speeds_up_gpu_reaction;
          QCheck_alcotest.to_alcotest prop_reaction_bits_exact;
        ] );
    ]
