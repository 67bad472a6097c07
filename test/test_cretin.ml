(* Tests for the Cretin analog: atomic models, rate matrices, steady-state
   solvers, time advance, minikin batching, and the threading/memory
   performance model. *)

open Cretin

let cond ?(te = 10.0) ?(ne = 1.0e21) ?(radiation = 0.0) () =
  { Ratematrix.te; ne; radiation }

(* --- atomic models --- *)

let test_ladder_structure () =
  let m = Atomic.ladder 5 in
  Alcotest.(check int) "levels" 5 (Atomic.n_levels m);
  Alcotest.(check (float 1e-12)) "ground energy" 0.0 m.Atomic.levels.(0).Atomic.energy;
  Alcotest.(check bool) "energies increase" true
    (m.Atomic.levels.(4).Atomic.energy > m.Atomic.levels.(1).Atomic.energy);
  Alcotest.(check int) "transitions" 8 (List.length m.Atomic.transitions)

let test_boltzmann_normalized () =
  let m = Atomic.ladder 8 in
  let p = Atomic.boltzmann m ~te:1.0 in
  Alcotest.(check (float 1e-12)) "sums to 1" 1.0 (Icoe_util.Stats.sum p);
  Alcotest.(check bool) "ground dominates at low T" true (p.(0) > 0.5)

(* --- rate matrix --- *)

let test_column_sums_zero () =
  (* population conservation: every column of M sums to zero *)
  let m = Atomic.ladder_with_photo 6 in
  let mat = Ratematrix.assemble m (cond ~radiation:1.0 ()) in
  let scale = Linalg.Dense.frobenius mat in
  for j = 0 to 5 do
    let s = ref 0.0 in
    for i = 0 to 5 do
      s := !s +. Linalg.Dense.get mat i j
    done;
    Alcotest.(check bool) (Fmt.str "col %d" j) true
      (Float.abs !s /. scale < 1e-12)
  done

let test_collisional_only_gives_boltzmann () =
  (* detailed balance: with only collisional transitions the steady state
     is the Boltzmann distribution *)
  let n = 6 in
  let levels =
    Array.init n (fun k ->
        { Atomic.energy = 2.0 *. float_of_int k; weight = 1.0 +. float_of_int k })
  in
  let transitions =
    List.concat
      (List.init (n - 1) (fun u ->
           [ Atomic.Collisional { upper = u + 1; lower = u; c0 = 1e-8 } ]))
  in
  let m = { Atomic.name = "lte"; levels; transitions } in
  let te = 7.0 in
  let pops = Ratematrix.solve_direct m (cond ~te ()) in
  let lte = Atomic.boltzmann m ~te in
  Alcotest.(check bool) "matches Boltzmann" true
    (Icoe_util.Stats.max_abs_diff pops lte < 1e-8)

let test_radiative_decay_depletes_excited () =
  (* non-LTE: adding radiative decay pulls excited populations below LTE *)
  let m = Atomic.ladder 6 in
  let te = 10.0 in
  let pops = Ratematrix.solve_direct m (cond ~te ()) in
  let lte = Atomic.boltzmann m ~te in
  Alcotest.(check (float 1e-9)) "normalized" 1.0 (Icoe_util.Stats.sum pops);
  Alcotest.(check bool) "excited below LTE" true (pops.(5) < lte.(5));
  Alcotest.(check bool) "ground above LTE" true (pops.(0) > lte.(0))

let test_populations_nonnegative () =
  let m = Atomic.ladder_with_photo 10 in
  let pops = Ratematrix.solve_direct m (cond ~te:5.0 ~radiation:0.5 ()) in
  Array.iter
    (fun p -> Alcotest.(check bool) "nonneg" true (p >= -1e-12))
    pops

let test_photo_rates_pump_excited () =
  let base = Atomic.ladder 6 in
  let pumped = Atomic.ladder_with_photo ~photo_strength:1.0e5 6 in
  (* dilute plasma: collisions weak enough for radiative pumping to show *)
  let c = cond ~te:3.0 ~ne:1.0e12 ~radiation:5.0 () in
  let p0 = Ratematrix.solve_direct base c in
  let p1 = Ratematrix.solve_direct pumped c in
  Alcotest.(check bool) "radiation pumps excited states" true
    (p1.(1) > p0.(1))

(* --- minikin --- *)

let test_minikin_gradient () =
  let m = Atomic.ladder 8 in
  let mk = Minikin.create ~nzones:16 ~te0:1.0 ~te1:50.0 m in
  Minikin.solve_all mk;
  Array.iter
    (fun z ->
      Alcotest.(check bool) "zone normalized" true
        (Float.abs (Icoe_util.Stats.sum z.Minikin.populations -. 1.0) < 1e-9))
    mk.Minikin.zones;
  (* hotter zones are more excited *)
  let cold = Minikin.mean_excitation mk.Minikin.zones.(0) in
  let hot = Minikin.mean_excitation mk.Minikin.zones.(15) in
  Alcotest.(check bool) "excitation grows with Te" true (hot > cold)

let test_sec43_speedup_shape () =
  (* second-largest model: ~5.75x node speedup, no idle cores *)
  let mid = Atomic.ladder 2000 in
  let s_mid, idle_mid = Minikin.node_speedup mid in
  Alcotest.(check bool) (Fmt.str "mid speedup %.2f in 4.5-7" s_mid) true
    (s_mid > 4.5 && s_mid < 7.0);
  Alcotest.(check (float 1e-9)) "no idle cores" 0.0 idle_mid;
  (* largest model: memory idles >half the CPU cores, speedup much higher *)
  let big = Atomic.ladder 18000 in
  let s_big, idle_big = Minikin.node_speedup big in
  Alcotest.(check bool) (Fmt.str "idle %.0f%% > 50%%" (idle_big *. 100.0)) true
    (idle_big > 0.5);
  Alcotest.(check bool) "largest model speedup much higher" true
    (s_big > 2.0 *. s_mid);
  (* small models don't pay off on the GPU *)
  let small = Atomic.ladder 40 in
  let s_small, _ = Minikin.node_speedup small in
  Alcotest.(check bool) "small model favours CPU" true (s_small < 1.0)

let test_gpu_memory_one_zone () =
  (* the GPU path only needs one zone resident: even the largest model's
     zone fits in a V100's 16 GB *)
  let big = Atomic.ladder 18000 in
  Alcotest.(check bool) "zone fits on GPU" true
    (Atomic.zone_bytes big < Hwsim.Device.v100.Hwsim.Device.mem_gb *. 1e9)

(* --- opacity --- *)

let test_opacity_line_structure () =
  let m = Atomic.ladder 6 in
  let c = cond ~te:10.0 () in
  let pops = Ratematrix.solve_direct m c in
  let sp = Opacity.spectrum m ~populations:pops ~te:10.0 in
  Alcotest.(check bool) "nonnegative" true
    (Array.for_all (fun (_, k) -> k >= 0.0) sp);
  (* opacity peaks near the strongest line centre (level 1 -> 0) *)
  let e1 = m.Atomic.levels.(1).Atomic.energy in
  let at_line = Opacity.opacity m ~populations:pops ~te:10.0 e1 in
  let off_line = Opacity.opacity m ~populations:pops ~te:10.0 (e1 /. 2.0) in
  Alcotest.(check bool)
    (Fmt.str "line %.3g >> continuum %.3g" at_line off_line)
    true
    (at_line > 10.0 *. off_line)

let test_opacity_saturates_with_excitation () =
  (* pumping population out of the ground state weakens ground-state
     absorption lines (stimulated emission + depletion) *)
  let m = Atomic.ladder 6 in
  let cold = Ratematrix.solve_direct m (cond ~te:2.0 ()) in
  let hot = Ratematrix.solve_direct m (cond ~te:50.0 ()) in
  let e1 = m.Atomic.levels.(1).Atomic.energy in
  let k_cold = Opacity.opacity m ~populations:cold ~te:2.0 e1 in
  (* evaluate the hot plasma's opacity at its own (broader) line centre *)
  let k_hot = Opacity.opacity m ~populations:hot ~te:50.0 e1 in
  Alcotest.(check bool) "hot plasma less opaque in the resonance line" true
    (k_hot < k_cold)

let test_planck_mean_positive () =
  let m = Atomic.ladder 8 in
  let pops = Ratematrix.solve_direct m (cond ~te:10.0 ()) in
  let pm = Opacity.planck_mean m ~populations:pops ~te:10.0 ~tr:8.0 in
  Alcotest.(check bool) "positive and finite" true (pm > 0.0 && Float.is_finite pm)

let prop_steady_state_is_nullspace =
  QCheck.Test.make ~name:"solved populations satisfy M n = 0" ~count:20
    QCheck.(pair (int_range 3 15) (int_range 1 1000))
    (fun (n, seed) ->
      let rng = Icoe_util.Rng.create seed in
      let m = Atomic.ladder n in
      let c = cond ~te:(Icoe_util.Rng.uniform rng 2.0 40.0) () in
      let pops = Ratematrix.solve_direct m c in
      let mat = Ratematrix.assemble m c in
      let r = Linalg.Dense.matvec mat pops in
      (* residual relative to the largest rate in the matrix *)
      let scale = Linalg.Dense.frobenius mat in
      Linalg.Vec.nrm_inf r /. scale < 1e-10)

let () =
  Alcotest.run "cretin"
    [
      ( "atomic",
        [
          Alcotest.test_case "ladder" `Quick test_ladder_structure;
          Alcotest.test_case "boltzmann" `Quick test_boltzmann_normalized;
        ] );
      ( "ratematrix",
        [
          Alcotest.test_case "column sums" `Quick test_column_sums_zero;
          Alcotest.test_case "detailed balance" `Quick test_collisional_only_gives_boltzmann;
          Alcotest.test_case "non-LTE depletion" `Quick test_radiative_decay_depletes_excited;
          Alcotest.test_case "nonnegative" `Quick test_populations_nonnegative;
          Alcotest.test_case "photo pumping" `Quick test_photo_rates_pump_excited;
          QCheck_alcotest.to_alcotest prop_steady_state_is_nullspace;
        ] );
      ( "opacity",
        [
          Alcotest.test_case "line structure" `Quick test_opacity_line_structure;
          Alcotest.test_case "saturation" `Quick test_opacity_saturates_with_excitation;
          Alcotest.test_case "planck mean" `Quick test_planck_mean_positive;
        ] );
      ( "minikin",
        [
          Alcotest.test_case "zone gradient" `Quick test_minikin_gradient;
          Alcotest.test_case "sec 4.3 speedups" `Quick test_sec43_speedup_shape;
          Alcotest.test_case "gpu one-zone memory" `Quick test_gpu_memory_one_zone;
        ] );
    ]
