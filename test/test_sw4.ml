(* Tests for the SW4 analog: grid/material, elastic operator, solver
   physics (wave speeds, stability, damping), and the performance-variant
   model. *)

module Fbuf = Icoe_util.Fbuf

let check_float = Alcotest.(check (float 1e-9))

let test_grid_material () =
  let g = Sw4.Grid.create ~nx:16 ~ny:16 ~h:10.0 in
  Sw4.Grid.homogeneous g ~rho:2000.0 ~vp:4000.0 ~vs:2000.0;
  check_float "p speed" 4000.0 (Sw4.Grid.p_speed g 5 5);
  check_float "s speed" 2000.0 (Sw4.Grid.s_speed g 5 5);
  check_float "max p" 4000.0 (Sw4.Grid.max_p_speed g);
  Alcotest.(check bool) "dt positive" true (Sw4.Grid.stable_dt g > 0.0)

let test_d1_exact_on_cubics () =
  (* the 4th-order stencil differentiates cubics exactly *)
  let g = Sw4.Grid.create ~nx:16 ~ny:16 ~h:0.5 in
  let f =
    Fbuf.init (16 * 16) (fun k ->
        let i = k mod 16 and j = k / 16 in
        let x = float_of_int i *. 0.5 and y = float_of_int j *. 0.5 in
        (x ** 3.0) +. (2.0 *. (y ** 3.0)) +. (x *. y))
  in
  let x = 5.0 *. 0.5 and y = 7.0 *. 0.5 in
  Alcotest.(check (float 1e-9)) "d/dx"
    ((3.0 *. x *. x) +. y)
    (Sw4.Elastic.d1x g f 5 7);
  Alcotest.(check (float 1e-9)) "d/dy"
    ((6.0 *. y *. y) +. x)
    (Sw4.Elastic.d1y g f 5 7)

let test_acceleration_zero_on_linear_field () =
  (* uniform strain (linear displacement) in a homogeneous medium has zero
     stress divergence *)
  let g = Sw4.Grid.create ~nx:24 ~ny:24 ~h:1.0 in
  Sw4.Grid.homogeneous g ~rho:1000.0 ~vp:2000.0 ~vs:1000.0;
  let n = 24 * 24 in
  let ux = Fbuf.init n (fun k -> 0.001 *. float_of_int (k mod 24)) in
  let uy = Fbuf.init n (fun k -> 0.002 *. float_of_int (k / 24)) in
  let ax = Fbuf.create n and ay = Fbuf.create n in
  let s = Sw4.Elastic.make_scratch g in
  Sw4.Elastic.acceleration g s ~ux ~uy ~ax ~ay;
  Alcotest.(check bool) "ax ~ 0" true (Linalg.Vec.nrm_inf (Fbuf.to_array ax) < 1e-8);
  Alcotest.(check bool) "ay ~ 0" true (Linalg.Vec.nrm_inf (Fbuf.to_array ay) < 1e-8)

let test_p_wave_speed () =
  (* point source in homogeneous medium: first arrival at a receiver at
     distance r gives the P speed within ~20% on a coarse grid *)
  let vp = 3000.0 and vs = 1500.0 in
  let h = 50.0 in
  let g = Sw4.Grid.create ~nx:120 ~ny:60 ~h in
  Sw4.Grid.homogeneous g ~rho:2000.0 ~vp ~vs;
  let f0 = 4.0 in
  let src =
    Sw4.Source.point_force ~i:20 ~j:30 ~fx:1e9 ~fy:0.0
      ~stf:(Sw4.Source.ricker ~f0 ~t0:(1.2 /. f0))
  in
  let rcv = Sw4.Solver.receiver ~i:90 ~j:30 in
  let solver = Sw4.Solver.create ~sources:[ src ] ~receivers:[ rcv ] g in
  let dist = float_of_int (90 - 20) *. h in
  let expected_arrival = (1.2 /. f0) +. (dist /. vp) in
  let steps = int_of_float (1.3 *. expected_arrival /. solver.Sw4.Solver.dt) in
  Sw4.Solver.run solver ~steps;
  (* peak-arrival time: the P pulse peaks at t0 + dist/vp *)
  let trace = List.rev rcv.Sw4.Solver.trace in
  let tpeak = ref 0.0 and peak = ref 0.0 in
  List.iter
    (fun (t, x, y) ->
      let v = sqrt ((x *. x) +. (y *. y)) in
      if v > !peak then begin
        peak := v;
        tpeak := t
      end)
    trace;
  Alcotest.(check bool) "wave arrived" true (!peak > 0.0);
  let v_measured = dist /. (!tpeak -. (1.2 /. f0)) in
  Alcotest.(check bool)
    (Fmt.str "measured %.0f vs vp %.0f" v_measured vp)
    true
    (v_measured > 0.85 *. vp && v_measured < 1.15 *. vp)

let test_stability_energy_bounded () =
  let g = Sw4.Grid.create ~nx:48 ~ny:48 ~h:100.0 in
  Sw4.Grid.homogeneous g ~rho:2500.0 ~vp:5000.0 ~vs:2500.0;
  let f0 = 2.0 in
  let src =
    Sw4.Source.point_force ~i:24 ~j:24 ~fx:1e9 ~fy:1e9
      ~stf:(Sw4.Source.ricker ~f0 ~t0:(1.0 /. f0))
  in
  let solver = Sw4.Solver.create ~sources:[ src ] g in
  Sw4.Solver.run solver ~steps:400;
  let e_mid = Sw4.Solver.energy_proxy solver in
  Sw4.Solver.run solver ~steps:800;
  let e_late = Sw4.Solver.energy_proxy solver in
  Alcotest.(check bool) "finite" true (Float.is_finite e_late);
  (* damping layers remove energy once the source is quiet *)
  Alcotest.(check bool) "energy decays after source" true (e_late < e_mid);
  Alcotest.(check bool) "fields finite" true
    (Array.for_all Float.is_finite (Fbuf.to_array solver.Sw4.Solver.ux))

let test_damping_profile_interior_unity () =
  let g = Sw4.Grid.create ~nx:64 ~ny:64 ~h:10.0 in
  Sw4.Grid.homogeneous g ~rho:2000.0 ~vp:3000.0 ~vs:1500.0;
  let s = Sw4.Solver.create g in
  check_float "interior taper 1" 1.0
    (Fbuf.get s.Sw4.Solver.damping (Sw4.Grid.idx g 32 32));
  Alcotest.(check bool) "wall taper < 1" true
    (Fbuf.get s.Sw4.Solver.damping (Sw4.Grid.idx g 0 32) < 1.0)

let test_ricker_properties () =
  check_float "peak at t0" 1.0 (Sw4.Source.ricker ~f0:2.0 ~t0:1.0 1.0);
  Alcotest.(check bool) "decays" true
    (Float.abs (Sw4.Source.ricker ~f0:2.0 ~t0:1.0 3.0) < 1e-6)

let test_temporal_convergence () =
  (* fixed grid, shrinking timestep: against a tiny-dt reference the
     error must fall clearly as dt halves (the cold-start u(-dt) ~ u(0)
     initialization contributes a first-order term, so we assert robust
     decrease rather than the asymptotic factor of 4) *)
  let nx = 48 in
  let solve cfl =
    let g = Sw4.Grid.create ~nx ~ny:nx ~h:100.0 in
    Sw4.Grid.homogeneous g ~rho:2000.0 ~vp:2000.0 ~vs:1000.0;
    let s = Sw4.Solver.create ~cfl ~damping_width:0 ~damping_strength:1.0 g in
    for j = 0 to nx - 1 do
      for i = 0 to nx - 1 do
        let k = Sw4.Grid.idx g i j in
        let x = float_of_int i /. float_of_int (nx - 1) in
        let y = float_of_int j /. float_of_int (nx - 1) in
        let v = 0.01 *. sin (Float.pi *. x) *. sin (Float.pi *. y) in
        Fbuf.set s.Sw4.Solver.ux k v;
        Fbuf.set s.Sw4.Solver.ux_prev k v
      done
    done;
    let tphys = 0.5 in
    (* choose cfl so steps divide tphys exactly *)
    let steps = int_of_float (Float.round (tphys /. s.Sw4.Solver.dt)) in
    let s = { s with Sw4.Solver.dt = tphys /. float_of_int steps } in
    Sw4.Solver.run s ~steps;
    Fbuf.get s.Sw4.Solver.ux (Sw4.Grid.idx g (nx / 2) (nx / 2))
  in
  let reference = solve 0.02 in
  let e_coarse = Float.abs (solve 0.4 -. reference) in
  let e_fine = Float.abs (solve 0.2 -. reference) in
  Alcotest.(check bool)
    (Fmt.str "dt halving shrinks error: %.2e -> %.2e" e_coarse e_fine)
    true
    (e_fine < 0.65 *. e_coarse)

(* --- scenario / performance --- *)

let test_hayward_basin_amplification () =
  let r = Sw4.Scenario.run_hayward ~nx:120 ~ny:72 ~h:100.0 ~steps:400 () in
  Alcotest.(check bool) "finite PGV" true
    (Array.for_all Float.is_finite r.Sw4.Scenario.pgv_surface);
  Alcotest.(check bool) "soft basin amplifies shaking" true
    r.Sw4.Scenario.basin_amplified;
  Alcotest.(check bool) "nonzero shaking" true
    (Icoe_util.Stats.sum r.Sw4.Scenario.pgv_surface > 0.0)

let test_variant_ordering () =
  (* Sec 4.9: shared-memory ~2x naive; RAJA ~30% slower than CUDA *)
  let g = Sw4.Grid.create ~nx:512 ~ny:512 ~h:100.0 in
  let t v = Sw4.Scenario.variant_time_per_step g v in
  let t_naive = t Sw4.Scenario.Naive_cuda in
  let t_shared = t Sw4.Scenario.Shared_cuda in
  let t_raja = t Sw4.Scenario.Raja in
  let t_cpu = t Sw4.Scenario.Cpu_openmp in
  Alcotest.(check bool) "shared beats naive" true (t_shared < t_naive);
  Alcotest.(check bool) "raja ~20-60% behind cuda" true
    (let pen = (t_raja -. t_naive) /. t_naive in
     pen > 0.1 && pen < 0.7);
  Alcotest.(check bool) "gpu beats cpu socket" true (t_naive < t_cpu)

let test_fused_kernel_faster_small_grid () =
  (* kernel merging pays off when launch overhead matters *)
  let g = Sw4.Grid.create ~nx:32 ~ny:32 ~h:100.0 in
  let t_split = Sw4.Scenario.variant_time_per_step g Sw4.Scenario.Naive_cuda in
  let t_fused =
    Sw4.Scenario.variant_time_per_step ~fused:true g Sw4.Scenario.Naive_cuda
  in
  Alcotest.(check bool) "fused faster" true (t_fused < t_split)

let test_sierra_vs_cori_throughput () =
  (* abstract: "up to a 14X throughput increase over Cori" per node *)
  let points = 4_000_000 in
  let sierra = Sw4.Scenario.node_throughput Hwsim.Node.witherspoon ~points in
  let cori = Sw4.Scenario.node_throughput Hwsim.Node.cori_ii ~points in
  let ratio = sierra /. cori in
  Alcotest.(check bool)
    (Fmt.str "ratio %.1f in 8-20x band" ratio)
    true
    (ratio > 8.0 && ratio < 20.0)

let test_production_run_parity () =
  (* 26B-point Hayward campaign: ~10 h on 256 Sierra nodes; Cori needs a
     high multiple of the nodes for the same deadline *)
  let gp = 26.0e9 and steps = 25_000 in
  let h = Sw4.Scenario.production_run_hours Hwsim.Node.sierra ~nodes:256 ~grid_points:gp ~steps in
  Alcotest.(check bool) (Fmt.str "%.1f h near 10" h) true (h > 5.0 && h < 15.0);
  let cori_nodes = Sw4.Scenario.nodes_for_deadline Hwsim.Node.cori ~grid_points:gp ~steps ~hours:h in
  Alcotest.(check bool)
    (Fmt.str "cori needs %d nodes (>5x)" cori_nodes)
    true
    (cori_nodes > 5 * 256);
  (* more nodes always means fewer or equal hours *)
  let h512 = Sw4.Scenario.production_run_hours Hwsim.Node.sierra ~nodes:512 ~grid_points:gp ~steps in
  Alcotest.(check bool) "scaling monotone" true (h512 < h)

let test_overlap_step_model () =
  let gp = 26e9 in
  let on =
    Sw4.Scenario.production_step_model ~overlap:true Hwsim.Node.sierra
      ~nodes:256 ~grid_points:gp
  in
  let off =
    Sw4.Scenario.production_step_model ~overlap:false Hwsim.Node.sierra
      ~nodes:256 ~grid_points:gp
  in
  (* serial decomposition is the pre-scheduler step time *)
  Alcotest.(check (float 0.0)) "serial = point + halo"
    (on.Sw4.Scenario.point_s +. on.Sw4.Scenario.halo_s)
    on.Sw4.Scenario.serial_s;
  Alcotest.(check (float 0.0)) "modes agree on serial cost"
    off.Sw4.Scenario.serial_s on.Sw4.Scenario.serial_s;
  (* halo under the interior stencil: strictly lower step time *)
  Alcotest.(check bool)
    (Fmt.str "overlapped %.6f < serial %.6f" on.Sw4.Scenario.overlapped_s
       on.Sw4.Scenario.serial_s)
    true
    (on.Sw4.Scenario.overlapped_s < on.Sw4.Scenario.serial_s);
  Alcotest.(check (float 0.0)) "overlap charges overlapped"
    on.Sw4.Scenario.overlapped_s on.Sw4.Scenario.step_s;
  Alcotest.(check (float 0.0)) "serial mode charges serial"
    off.Sw4.Scenario.serial_s off.Sw4.Scenario.step_s;
  (* boundary fraction is a real fraction and the overlapped step never
     beats the interior-only lower bound *)
  Alcotest.(check bool) "boundary_frac in (0, 0.5]" true
    (on.Sw4.Scenario.boundary_frac > 0.0
    && on.Sw4.Scenario.boundary_frac <= 0.5);
  let h_on =
    Sw4.Scenario.production_run_hours ~overlap:true Hwsim.Node.sierra
      ~nodes:256 ~grid_points:gp ~steps:72_000
  in
  let h_off =
    Sw4.Scenario.production_run_hours ~overlap:false Hwsim.Node.sierra
      ~nodes:256 ~grid_points:gp ~steps:72_000
  in
  Alcotest.(check bool)
    (Fmt.str "campaign %.2f h < %.2f h" h_on h_off)
    true (h_on < h_off)

let test_split_default_bit_identical () =
  (* the tuner contract: gpu_frac = 1.0 with a dedicated halo stream is
     the paper default and must reproduce the unsplit model bitwise *)
  let gp = 26e9 in
  let bits = Int64.bits_of_float in
  List.iter
    (fun overlap ->
      let a =
        Sw4.Scenario.production_step_model ~overlap Hwsim.Node.sierra
          ~nodes:256 ~grid_points:gp
      in
      let b =
        Sw4.Scenario.production_step_model ~overlap ~gpu_frac:1.0
          ~comm:Hwsim.Split.Dedicated Hwsim.Node.sierra ~nodes:256
          ~grid_points:gp
      in
      let who = if overlap then "overlap" else "serial" in
      List.iter
        (fun (f, get) ->
          Alcotest.(check int64)
            (Fmt.str "%s: %s bitwise" who f)
            (bits (get a)) (bits (get b)))
        [
          ("point_s", fun m -> m.Sw4.Scenario.point_s);
          ("halo_s", fun m -> m.Sw4.Scenario.halo_s);
          ("serial_s", fun m -> m.Sw4.Scenario.serial_s);
          ("overlapped_s", fun m -> m.Sw4.Scenario.overlapped_s);
          ("step_s", fun m -> m.Sw4.Scenario.step_s);
        ];
      Alcotest.(check int) (who ^ ": same DAG size")
        (Array.length a.Sw4.Scenario.dag)
        (Array.length b.Sw4.Scenario.dag))
    [ true; false ]

let test_split_partial_co_executes () =
  let gp = 26e9 in
  let d =
    Sw4.Scenario.production_step_model ~overlap:true Hwsim.Node.sierra
      ~nodes:256 ~grid_points:gp
  in
  let m =
    Sw4.Scenario.production_step_model ~overlap:true ~gpu_frac:0.5
      Hwsim.Node.sierra ~nodes:256 ~grid_points:gp
  in
  (* host co-execution items join the DAG, and handing half the stencil
     to the slower CPU side makes the serial decomposition worse *)
  Alcotest.(check bool) "CPU items enqueued" true
    (Array.length m.Sw4.Scenario.dag > Array.length d.Sw4.Scenario.dag);
  Alcotest.(check bool)
    (Fmt.str "half-split serial %.4f > all-GPU %.4f" m.Sw4.Scenario.serial_s
       d.Sw4.Scenario.serial_s)
    true
    (m.Sw4.Scenario.serial_s > d.Sw4.Scenario.serial_s);
  (* inline halo placement serializes communication with compute *)
  let inl =
    Sw4.Scenario.production_step_model ~overlap:true
      ~comm:Hwsim.Split.Inline Hwsim.Node.sierra ~nodes:256 ~grid_points:gp
  in
  Alcotest.(check int64) "inline halo leaves serial cost alone"
    (Int64.bits_of_float d.Sw4.Scenario.serial_s)
    (Int64.bits_of_float inl.Sw4.Scenario.serial_s);
  Alcotest.(check bool) "inline halo can't overlap" true
    (inl.Sw4.Scenario.overlapped_s >= d.Sw4.Scenario.overlapped_s)

let prop_acceleration_par_bits_exact =
  (* the pooled stencil must agree with the serial reference to the last
     bit, for random heterogeneous material and random displacement
     fields, under whatever ICOE_DOMAINS the suite runs with *)
  QCheck.Test.make ~name:"pooled acceleration bit-identical to serial"
    ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Icoe_util.Rng.create seed in
      let nx = 20 + Icoe_util.Rng.int rng 20 in
      let ny = 20 + Icoe_util.Rng.int rng 20 in
      let g = Sw4.Grid.create ~nx ~ny ~h:100.0 in
      Sw4.Grid.homogeneous g ~rho:2500.0 ~vp:5000.0 ~vs:2500.0;
      for k = 0 to (nx * ny) - 1 do
        g.Sw4.Grid.rho.(k) <- g.Sw4.Grid.rho.(k) *. Icoe_util.Rng.uniform rng 0.8 1.2;
        g.Sw4.Grid.mu.(k) <- g.Sw4.Grid.mu.(k) *. Icoe_util.Rng.uniform rng 0.8 1.2;
        g.Sw4.Grid.lambda.(k) <- g.Sw4.Grid.lambda.(k) *. Icoe_util.Rng.uniform rng 0.8 1.2
      done;
      let n = nx * ny in
      let ux = Fbuf.init n (fun _ -> Icoe_util.Rng.uniform rng (-1e-3) 1e-3) in
      let uy = Fbuf.init n (fun _ -> Icoe_util.Rng.uniform rng (-1e-3) 1e-3) in
      let ax_p = Fbuf.create n and ay_p = Fbuf.create n in
      let ax_s = Fbuf.create n and ay_s = Fbuf.create n in
      Sw4.Elastic.acceleration g (Sw4.Elastic.make_scratch g) ~ux ~uy
        ~ax:ax_p ~ay:ay_p;
      Sw4.Elastic.acceleration_seq g (Sw4.Elastic.make_scratch g) ~ux ~uy
        ~ax:ax_s ~ay:ay_s;
      let bits_eq a b =
        Array.for_all2
          (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
          (Fbuf.to_array a) (Fbuf.to_array b)
      in
      bits_eq ax_p ax_s && bits_eq ay_p ay_s)

let test_snapshot_restore_replays () =
  (* the Solver.restore contract: stepping after a restore replays the
     original trajectory bit for bit, seismograms included *)
  let g = Sw4.Grid.create ~nx:40 ~ny:40 ~h:100.0 in
  Sw4.Grid.homogeneous g ~rho:2500.0 ~vp:5000.0 ~vs:2500.0;
  let src =
    Sw4.Source.point_force ~i:20 ~j:20 ~fx:1e9 ~fy:5e8
      ~stf:(Sw4.Source.ricker ~f0:2.0 ~t0:0.5)
  in
  let rcv = Sw4.Solver.receiver ~i:30 ~j:20 in
  let s = Sw4.Solver.create ~sources:[ src ] ~receivers:[ rcv ] g in
  Sw4.Solver.run s ~steps:50;
  let snap = Sw4.Solver.snapshot s in
  let bits b = Array.map Int64.bits_of_float (Fbuf.to_array b) in
  let state () =
    ( bits s.Sw4.Solver.ux,
      bits s.Sw4.Solver.uy,
      Int64.bits_of_float s.Sw4.Solver.time,
      s.Sw4.Solver.steps,
      List.map
        (fun (t, x, y) ->
          (Int64.bits_of_float t, Int64.bits_of_float x, Int64.bits_of_float y))
        rcv.Sw4.Solver.trace )
  in
  Sw4.Solver.run s ~steps:40;
  let first = state () in
  Sw4.Solver.restore s snap;
  Alcotest.(check int) "step count restored" 50 s.Sw4.Solver.steps;
  Alcotest.(check int) "trace restored" 50 (List.length rcv.Sw4.Solver.trace);
  Sw4.Solver.run s ~steps:40;
  Alcotest.(check bool) "replay bit-identical" true (first = state ())

let () =
  Alcotest.run "sw4"
    [
      ( "grid",
        [
          Alcotest.test_case "material" `Quick test_grid_material;
          Alcotest.test_case "d1 exact" `Quick test_d1_exact_on_cubics;
        ] );
      ( "elastic",
        [
          Alcotest.test_case "linear field" `Quick test_acceleration_zero_on_linear_field;
          QCheck_alcotest.to_alcotest prop_acceleration_par_bits_exact;
        ] );
      ( "solver",
        [
          Alcotest.test_case "p-wave speed" `Slow test_p_wave_speed;
          Alcotest.test_case "stability" `Quick test_stability_energy_bounded;
          Alcotest.test_case "damping profile" `Quick test_damping_profile_interior_unity;
          Alcotest.test_case "ricker" `Quick test_ricker_properties;
          Alcotest.test_case "temporal convergence" `Slow test_temporal_convergence;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "hayward basin" `Slow test_hayward_basin_amplification;
          Alcotest.test_case "variant ordering" `Quick test_variant_ordering;
          Alcotest.test_case "fused kernels" `Quick test_fused_kernel_faster_small_grid;
          Alcotest.test_case "sierra vs cori" `Quick test_sierra_vs_cori_throughput;
          Alcotest.test_case "production parity" `Quick test_production_run_parity;
          Alcotest.test_case "overlap step model" `Quick test_overlap_step_model;
          Alcotest.test_case "split default bit-identical" `Quick
            test_split_default_bit_identical;
          Alcotest.test_case "split co-executes" `Quick
            test_split_partial_co_executes;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "restore replays" `Quick
            test_snapshot_restore_replays;
        ] );
    ]
