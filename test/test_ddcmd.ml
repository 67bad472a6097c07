(* Tests for the ddcMD analog: particles, potentials, linked cells, bonded
   terms, the integrator stack, and the GROMACS comparison model. *)

open Ddcmd
module Fbuf = Icoe_util.Fbuf

let rng () = Icoe_util.Rng.create 71

(* --- particles --- *)

let test_lattice_no_overlap () =
  let p = Particles.create ~n:64 ~box:8.0 in
  Particles.lattice_init p;
  let mind = ref infinity in
  for i = 0 to 62 do
    for j = i + 1 to 63 do
      mind := min !mind (sqrt (Particles.dist2 p i j))
    done
  done;
  Alcotest.(check bool) "min spacing positive" true (!mind > 1.0)

let test_min_image () =
  let p = Particles.create ~n:2 ~box:10.0 in
  Fbuf.set p.Particles.x 0 (0.5);
  Fbuf.set p.Particles.x 1 (9.5);
  Alcotest.(check (float 1e-12)) "wraps across boundary" 1.0
    (sqrt (Particles.dist2 p 0 1))

let test_thermalize_temperature () =
  let p = Particles.create ~n:2000 ~box:20.0 in
  Particles.lattice_init p;
  Particles.thermalize p ~rng:(rng ()) ~temp:1.5;
  let t = Particles.temperature p in
  Alcotest.(check bool) "temperature near target" true (Float.abs (t -. 1.5) < 0.1);
  let mx, my, mz = Particles.total_momentum p in
  Alcotest.(check bool) "zero COM momentum" true
    (Float.abs mx +. Float.abs my +. Float.abs mz < 1e-9)

(* --- potentials --- *)

let test_lj_minimum () =
  let pot = Potential.lennard_jones ~epsilon:1.0 ~sigma:1.0 ~cutoff:3.0 () in
  (* force zero at r = 2^(1/6) sigma *)
  let rmin = 2.0 ** (1.0 /. 6.0) in
  let _, f = Potential.eval pot ~si:0 ~sj:0 ~r2:(rmin *. rmin) in
  Alcotest.(check (float 1e-9)) "zero force at minimum" 0.0 f;
  let _, f_close = Potential.eval pot ~si:0 ~sj:0 ~r2:(0.9 *. 0.9) in
  let _, f_far = Potential.eval pot ~si:0 ~sj:0 ~r2:(1.5 *. 1.5) in
  Alcotest.(check bool) "repulsive inside" true (f_close > 0.0);
  Alcotest.(check bool) "attractive outside" true (f_far < 0.0)

let test_lj_cutoff_continuity () =
  let pot = Potential.lennard_jones ~cutoff:2.5 () in
  let e_in, _ = Potential.eval pot ~si:0 ~sj:0 ~r2:(2.499 *. 2.499) in
  let e_out, _ = Potential.eval pot ~si:0 ~sj:0 ~r2:(2.501 *. 2.501) in
  Alcotest.(check bool) "energy continuous at cutoff" true
    (Float.abs (e_in -. e_out) < 1e-3)

let test_martini_species_matrix () =
  let eps = [| [| 1.0; 0.5 |]; [| 0.5; 2.0 |] |] in
  let sg = [| [| 0.47; 0.47 |]; [| 0.47; 0.47 |] |] in
  let pot = Potential.martini ~epsilon:eps ~sigma:sg () in
  let e00, _ = Potential.eval pot ~si:0 ~sj:0 ~r2:(0.5 *. 0.5) in
  let e11, _ = Potential.eval pot ~si:1 ~sj:1 ~r2:(0.5 *. 0.5) in
  Alcotest.(check bool) "species-dependent wells" true
    (Float.abs (e11 /. e00 -. 2.0) < 1e-9)

(* --- cells --- *)

let test_cells_match_all_pairs () =
  (* forces via linked cells must equal O(N^2) enumeration *)
  let r = rng () in
  let p = Particles.create ~n:120 ~box:7.0 in
  Particles.lattice_init p;
  (* jitter positions *)
  for i = 0 to 119 do
    Fbuf.set p.Particles.x i (Particles.wrap p ((Fbuf.get p.Particles.x i) +. Icoe_util.Rng.uniform r (-0.2) 0.2));
    Fbuf.set p.Particles.y i (Particles.wrap p ((Fbuf.get p.Particles.y i) +. Icoe_util.Rng.uniform r (-0.2) 0.2));
    Fbuf.set p.Particles.z i (Particles.wrap p ((Fbuf.get p.Particles.z i) +. Icoe_util.Rng.uniform r (-0.2) 0.2))
  done;
  let cutoff = 1.5 in
  let cl = Cells.build p ~cutoff in
  let pairs_cells = ref [] in
  Cells.iter_pairs cl p ~cutoff (fun i j ->
      pairs_cells := (min i j, max i j) :: !pairs_cells);
  let pairs_naive = ref [] in
  for i = 0 to 118 do
    for j = i + 1 to 119 do
      if Particles.dist2 p i j <= cutoff *. cutoff then
        pairs_naive := (i, j) :: !pairs_naive
    done
  done;
  let norm l = List.sort_uniq compare l in
  Alcotest.(check int) "same pair count"
    (List.length (norm !pairs_naive))
    (List.length (norm !pairs_cells));
  Alcotest.(check bool) "same pair set" true (norm !pairs_naive = norm !pairs_cells)

let test_cells_negative_coordinate_clamped () =
  (* regression: a slightly-negative unwrapped coordinate (floating-point
     wrap residue like -1e-16, or integrator drift before rewrapping)
     used to bin to cell -1 and index head out of bounds; cell_coord now
     clamps both ends *)
  Alcotest.(check int) "slightly negative binned to 0" 0
    (Cells.cell_coord ~ncell:4 ~cell_size:1.0 (-1e-16));
  Alcotest.(check int) "below box binned to 0" 0
    (Cells.cell_coord ~ncell:4 ~cell_size:1.0 (-0.3));
  Alcotest.(check int) "above box binned to last" 3
    (Cells.cell_coord ~ncell:4 ~cell_size:1.0 4.2);
  let p = Particles.create ~n:27 ~box:6.0 in
  Particles.lattice_init p;
  (* plant boundary offenders: exact 0.0, -0.0, a negative ulp, and a
     coordinate just past the box edge *)
  Fbuf.set p.Particles.x 0 (-1e-16);
  Fbuf.set p.Particles.y 0 (-0.0);
  Fbuf.set p.Particles.z 0 0.0;
  Fbuf.set p.Particles.x 1 (6.0 +. 1e-12);
  let cutoff = 1.5 in
  let cl = Cells.build p ~cutoff in
  (* enumeration must neither crash nor lose pairs vs O(N^2) *)
  let pairs_cells = ref [] in
  Cells.iter_pairs cl p ~cutoff (fun i j ->
      pairs_cells := (min i j, max i j) :: !pairs_cells);
  let pairs_naive = ref [] in
  for i = 0 to 25 do
    for j = i + 1 to 26 do
      if Particles.dist2 p i j <= cutoff *. cutoff then
        pairs_naive := (i, j) :: !pairs_naive
    done
  done;
  let norm l = List.sort_uniq compare l in
  Alcotest.(check bool) "same pair set with boundary offenders" true
    (norm !pairs_naive = norm !pairs_cells)

(* --- bonded --- *)

let test_bond_force_direction () =
  let p = Particles.create ~n:2 ~box:10.0 in
  Fbuf.set p.Particles.x 0 (4.0);
  Fbuf.set p.Particles.x 1 (6.0);
  Fbuf.set p.Particles.y 0 (5.0);
  Fbuf.set p.Particles.y 1 (5.0);
  Fbuf.set p.Particles.z 0 (5.0);
  Fbuf.set p.Particles.z 1 (5.0);
  (* stretched bond (r=2, r0=1.5): force pulls them together *)
  let e = Bonded.bond_forces p [ { Bonded.bi = 0; bj = 1; k = 10.0; r0 = 1.5 } ] in
  Alcotest.(check bool) "positive energy" true (e > 0.0);
  Alcotest.(check bool) "0 pulled toward 1" true ((Fbuf.get p.Particles.fx 0) > 0.0);
  Alcotest.(check bool) "1 pulled toward 0" true ((Fbuf.get p.Particles.fx 1) < 0.0);
  Alcotest.(check (float 1e-12)) "newton's third law" 0.0
    ((Fbuf.get p.Particles.fx 0) +. (Fbuf.get p.Particles.fx 1))

(* --- engine --- *)

let lj_system ?(n = 125) ?(box = 6.5) ?(temp = 0.7) () =
  let p = Particles.create ~n ~box in
  Particles.lattice_init p;
  Particles.thermalize p ~rng:(rng ()) ~temp;
  Engine.create ~dt:0.004 ~potential:(Potential.lennard_jones ()) p

let test_nve_energy_conservation () =
  let e = lj_system () in
  Engine.run e ~steps:50;
  let e0 = Engine.total_energy e in
  Engine.run e ~steps:400;
  let e1 = Engine.total_energy e in
  let drift = Float.abs (e1 -. e0) /. Float.abs e0 in
  Alcotest.(check bool) (Fmt.str "relative drift %.2e < 1%%" drift) true (drift < 0.01)

let test_nve_momentum_conservation () =
  let e = lj_system () in
  Engine.run e ~steps:300;
  let mx, my, mz = Particles.total_momentum e.Engine.p in
  Alcotest.(check bool) "momentum conserved" true
    (Float.abs mx +. Float.abs my +. Float.abs mz < 1e-8)

let test_langevin_thermostat () =
  let e = lj_system ~temp:0.2 () in
  let r = rng () in
  (* thermostat drives the system toward T = 1.2 *)
  Engine.run ~langevin:(5.0, 1.2, r) e ~steps:1500;
  let samples = Array.init 50 (fun _ ->
      Engine.run ~langevin:(5.0, 1.2, r) e ~steps:10;
      Particles.temperature e.Engine.p)
  in
  let tbar = Icoe_util.Stats.mean samples in
  Alcotest.(check bool) (Fmt.str "T=%.2f near 1.2" tbar) true
    (Float.abs (tbar -. 1.2) < 0.15)

let test_shake_maintains_distance () =
  let p = Particles.create ~n:2 ~box:10.0 in
  Fbuf.set p.Particles.x 0 (5.0); Fbuf.set p.Particles.y 0 (5.0); Fbuf.set p.Particles.z 0 (5.0);
  Fbuf.set p.Particles.x 1 (6.0); Fbuf.set p.Particles.y 1 (5.0); Fbuf.set p.Particles.z 1 (5.0);
  (* opposing velocities try to stretch the constrained pair *)
  Fbuf.set p.Particles.vx 0 (-1.0);
  Fbuf.set p.Particles.vx 1 (1.0);
  let e =
    Engine.create ~dt:0.004 ~constraints:[ (0, 1, 1.0) ]
      ~potential:(Potential.soft_sphere ~sigma:0.1 ()) p
  in
  Engine.run e ~steps:200;
  let d = sqrt (Particles.dist2 p 0 1) in
  Alcotest.(check bool) (Fmt.str "constraint held: d=%.4f" d) true
    (Float.abs (d -. 1.0) < 1e-3)

let test_martini_membrane_patch_stable () =
  (* two-species Martini-like fluid: runs stably with bonds, thermostat *)
  let r = rng () in
  let p = Particles.create ~n:96 ~box:5.0 in
  Particles.lattice_init p;
  for i = 0 to 95 do
    p.Particles.species.(i) <- i mod 2
  done;
  Particles.thermalize p ~rng:r ~temp:1.0;
  let eps = [| [| 1.0; 0.6 |]; [| 0.6; 1.2 |] |] in
  let sg = [| [| 0.6; 0.6 |]; [| 0.6; 0.6 |] |] in
  let bonds =
    (* bond every even particle to the next odd one: crude dimer lipids *)
    List.init 48 (fun k -> { Bonded.bi = 2 * k; bj = (2 * k) + 1; k = 50.0; r0 = 0.5 })
  in
  let e =
    Engine.create ~dt:0.002 ~bonds
      ~potential:(Potential.martini ~epsilon:eps ~sigma:sg ~cutoff:1.2 ())
      p
  in
  Engine.run ~langevin:(2.0, 1.0, r) e ~steps:500;
  Alcotest.(check bool) "finite positions" true
    (Array.for_all Float.is_finite (Fbuf.to_array p.Particles.x));
  Alcotest.(check bool) "pairs evaluated" true (e.Engine.pair_count > 0)

(* --- performance model --- *)

let test_gromacs_comparison_shape () =
  (* the paper's Table comparisons were calibrated against serialized
     charging, so pin ~overlap:false (the overlapped pipeline is covered
     by test_overlap_step_model) *)
  let d1, g1 = Perf.step_times ~overlap:false Perf.One_gpu in
  let d4, g4 = Perf.step_times ~overlap:false Perf.Four_gpu in
  let dm, gm = Perf.step_times ~overlap:false Perf.Mummi in
  (* paper: 2.31 vs 2.88 ms; 1.3x at 4 GPUs; 2.3x inside MuMMI *)
  Alcotest.(check bool) "1-gpu ddcMD ~2.3ms" true
    (d1 > 2.0e-3 && d1 < 2.6e-3);
  Alcotest.(check bool) "1-gpu ratio in 1.1-1.4" true
    (g1 /. d1 > 1.1 && g1 /. d1 < 1.4);
  Alcotest.(check bool) "4-gpu ratio in 1.15-1.5" true
    (g4 /. d4 > 1.15 && g4 /. d4 < 1.5);
  Alcotest.(check bool) "mummi ratio in 2.0-2.8" true
    (gm /. dm > 2.0 && gm /. dm < 2.8);
  Alcotest.(check bool) "4 gpus faster than 1" true (d4 < d1);
  Alcotest.(check bool) "peak fraction > 30%" true
    (Perf.ddcmd_peak_fraction () > 0.3)

let test_overlap_step_model () =
  List.iter
    (fun (name, scen) ->
      let on = Perf.ddcmd_step_model ~overlap:true scen in
      let off = Perf.ddcmd_step_model ~overlap:false scen in
      Alcotest.(check (float 0.0)) (name ^ ": modes agree on serial cost")
        off.Perf.serial_s on.Perf.serial_s;
      (* launches hidden under the kernel pipeline (and, at 4 GPUs, the
         halo under compute): strictly lower than back-to-back *)
      Alcotest.(check bool)
        (Fmt.str "%s: overlapped %.3e < serial %.3e" name on.Perf.overlapped_s
           on.Perf.serial_s)
        true
        (on.Perf.overlapped_s < on.Perf.serial_s);
      Alcotest.(check (float 0.0)) (name ^ ": overlap charges overlapped")
        on.Perf.overlapped_s on.Perf.step_s;
      Alcotest.(check (float 0.0)) (name ^ ": serial mode charges serial")
        off.Perf.serial_s off.Perf.step_s;
      (* the serialized side of step_times is what the model calls serial *)
      let d_off, _ = Perf.step_times ~overlap:false scen in
      Alcotest.(check (float 0.0)) (name ^ ": step_times serial parity")
        off.Perf.serial_s d_off)
    [ ("1gpu", Perf.One_gpu); ("4gpu", Perf.Four_gpu); ("mummi", Perf.Mummi) ];
  (* the 4-GPU configuration also hides its halo, so it overlaps deeper
     than the single-GPU pipeline *)
  let e scen =
    let m = Perf.ddcmd_step_model ~overlap:true scen in
    m.Perf.overlapped_s /. m.Perf.serial_s
  in
  Alcotest.(check bool)
    (Fmt.str "4gpu efficiency %.3f < 1gpu %.3f" (e Perf.Four_gpu)
       (e Perf.One_gpu))
    true
    (e Perf.Four_gpu < e Perf.One_gpu)

let test_split_default_bit_identical () =
  (* the tuner contract: gpu_frac = 1.0 with the dedicated halo stream
     reproduces the unsplit kernel pipeline bitwise, in both modes and
     all three scenarios *)
  let bits = Int64.bits_of_float in
  List.iter
    (fun (name, scen) ->
      List.iter
        (fun overlap ->
          let a = Perf.ddcmd_step_model ~overlap scen in
          let b =
            Perf.ddcmd_step_model ~overlap ~gpu_frac:1.0
              ~comm:Hwsim.Split.Dedicated scen
          in
          let who = Fmt.str "%s/%s" name (if overlap then "on" else "off") in
          Alcotest.(check int64) (who ^ ": serial_s bitwise")
            (bits a.Perf.serial_s) (bits b.Perf.serial_s);
          Alcotest.(check int64) (who ^ ": overlapped_s bitwise")
            (bits a.Perf.overlapped_s) (bits b.Perf.overlapped_s);
          Alcotest.(check int64) (who ^ ": step_s bitwise")
            (bits a.Perf.step_s) (bits b.Perf.step_s);
          Alcotest.(check int) (who ^ ": same DAG size")
            (Array.length a.Perf.dag) (Array.length b.Perf.dag))
        [ true; false ])
    [ ("1gpu", Perf.One_gpu); ("4gpu", Perf.Four_gpu); ("mummi", Perf.Mummi) ]

let test_split_partial_co_executes () =
  let d = Perf.ddcmd_step_model ~overlap:true Perf.Four_gpu in
  let m = Perf.ddcmd_step_model ~overlap:true ~gpu_frac:0.5 Perf.Four_gpu in
  (* every kernel gains a host-side sibling *)
  Alcotest.(check int) "one CPU item per kernel"
    (Array.length d.Perf.dag + Perf.kernel_count)
    (Array.length m.Perf.dag);
  Alcotest.(check bool)
    (Fmt.str "half-split serial %.3e > all-GPU %.3e" m.Perf.serial_s
       d.Perf.serial_s)
    true
    (m.Perf.serial_s > d.Perf.serial_s)

let prop_lj_forces_finite =
  QCheck.Test.make ~name:"LJ eval finite for r2 in (0.5, 10)" ~count:200
    QCheck.(float_range 0.5 10.0)
    (fun r2 ->
      let pot = Potential.lennard_jones () in
      let e, f = Potential.eval pot ~si:0 ~sj:0 ~r2 in
      Float.is_finite e && Float.is_finite f)

let prop_forces_par_bits_exact =
  (* the pooled force kernel must match the serial reference to the last
     bit — forces, potential energy and virial — for random thermal
     states, under whatever ICOE_DOMAINS the suite runs with *)
  QCheck.Test.make ~name:"pooled forces bit-identical to serial" ~count:15
    QCheck.(int_range 1 1000)
    (fun seed ->
      let mk () =
        let r = Icoe_util.Rng.create seed in
        let n = 64 + (8 * Icoe_util.Rng.int r 12) in
        let p = Particles.create ~n ~box:(5.0 +. Icoe_util.Rng.float r) in
        Particles.lattice_init p;
        Particles.thermalize p ~rng:r ~temp:(0.3 +. Icoe_util.Rng.float r);
        Engine.create ~dt:0.004 ~potential:(Potential.lennard_jones ()) p
      in
      let e_par = mk () and e_seq = mk () in
      Engine.compute_forces e_par;
      Engine.compute_forces_seq e_seq;
      let bits_eq a b =
        Array.for_all2
          (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          (Fbuf.to_array a) (Fbuf.to_array b)
      in
      bits_eq e_par.Engine.p.Particles.fx e_seq.Engine.p.Particles.fx
      && bits_eq e_par.Engine.p.Particles.fy e_seq.Engine.p.Particles.fy
      && bits_eq e_par.Engine.p.Particles.fz e_seq.Engine.p.Particles.fz
      && Int64.equal
           (Int64.bits_of_float e_par.Engine.pot_energy)
           (Int64.bits_of_float e_seq.Engine.pot_energy)
      && Int64.equal
           (Int64.bits_of_float e_par.Engine.virial)
           (Int64.bits_of_float e_seq.Engine.virial)
      && e_par.Engine.pair_count = e_seq.Engine.pair_count)

let () =
  Alcotest.run "ddcmd"
    [
      ( "particles",
        [
          Alcotest.test_case "lattice" `Quick test_lattice_no_overlap;
          Alcotest.test_case "min image" `Quick test_min_image;
          Alcotest.test_case "thermalize" `Quick test_thermalize_temperature;
        ] );
      ( "potential",
        [
          Alcotest.test_case "lj minimum" `Quick test_lj_minimum;
          Alcotest.test_case "lj cutoff" `Quick test_lj_cutoff_continuity;
          Alcotest.test_case "martini matrix" `Quick test_martini_species_matrix;
          QCheck_alcotest.to_alcotest prop_lj_forces_finite;
        ] );
      ( "cells",
        [
          Alcotest.test_case "matches all-pairs" `Quick test_cells_match_all_pairs;
          Alcotest.test_case "negative coordinate clamped" `Quick
            test_cells_negative_coordinate_clamped;
        ] );
      ( "bonded",
        [
          Alcotest.test_case "bond direction" `Quick test_bond_force_direction;
        ] );
      ( "engine",
        [
          Alcotest.test_case "nve energy" `Slow test_nve_energy_conservation;
          Alcotest.test_case "nve momentum" `Quick test_nve_momentum_conservation;
          Alcotest.test_case "langevin" `Slow test_langevin_thermostat;
          Alcotest.test_case "shake" `Quick test_shake_maintains_distance;
          Alcotest.test_case "martini patch" `Quick test_martini_membrane_patch_stable;
          QCheck_alcotest.to_alcotest prop_forces_par_bits_exact;
        ] );
      ( "perf",
        [
          Alcotest.test_case "gromacs comparison" `Quick test_gromacs_comparison_shape;
          Alcotest.test_case "overlap step model" `Quick test_overlap_step_model;
          Alcotest.test_case "split default bit-identical" `Quick
            test_split_default_bit_identical;
          Alcotest.test_case "split co-executes" `Quick
            test_split_partial_co_executes;
        ] );
    ]
