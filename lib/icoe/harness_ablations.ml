(** Ablations: the design-choice studies behind the paper's lessons
    learned. *)

open Icoe_util

let ablations () =
  let buf = Buffer.create 1024 in
  let addf fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* 1. partial vs full assembly (MFEM's core rewrite) *)
  let mesh = Mfem.Mesh.create ~nx:8 ~ny:8 ~p:6 () in
  let basis = Mfem.Basis.create 6 in
  let pa = Mfem.Diffusion.Pa.setup mesh basis in
  let fa = Mfem.Diffusion.assemble mesh basis in
  let eff = Hwsim.Roofline.eff ~compute:0.5 ~bandwidth:0.75 () in
  let t_pa = Hwsim.Roofline.time ~eff Hwsim.Device.v100 (Mfem.Diffusion.Pa.work pa) in
  let t_fa = Hwsim.Roofline.time ~eff Hwsim.Device.v100 (Mfem.Diffusion.fa_work fa) in
  addf "PA vs FA (p=6, 8x8 elements): apply %.1f vs %.1f us (%.1fx), storage %.2f vs %.2f MB (%.1fx)"
    (t_pa *. 1e6) (t_fa *. 1e6) (t_fa /. t_pa)
    (Mfem.Diffusion.Pa.storage_bytes pa /. 1e6)
    (Mfem.Diffusion.fa_storage_bytes fa /. 1e6)
    (Mfem.Diffusion.fa_storage_bytes fa /. Mfem.Diffusion.Pa.storage_bytes pa);
  (* 2. kernel fusion vs launch overhead (sw4lite) *)
  let g = Sw4.Grid.create ~nx:48 ~ny:48 ~h:100.0 in
  let t_split = Sw4.Scenario.variant_time_per_step g Sw4.Scenario.Naive_cuda in
  let t_fused = Sw4.Scenario.variant_time_per_step ~fused:true g Sw4.Scenario.Naive_cuda in
  addf "kernel fusion (48^2 stencil): %.1f -> %.1f us/step (%.0f%% of the small-grid step was launch overhead)"
    (t_split *. 1e6) (t_fused *. 1e6)
    ((t_split -. t_fused) /. t_split *. 100.0);
  (* 3. shuffle levers in isolation *)
  let lever jvm shuffle tree =
    let cfg =
      { (Sparkle.Cluster.default_config ~nodes:32 ()) with
        Sparkle.Cluster.jvm_optimized = jvm; adaptive_shuffle = shuffle;
        tree_aggregate = tree }
    in
    let c = Sparkle.Cluster.create cfg in
    for _ = 1 to 5 do
      Lda.Fig2.charge_iteration c Lda.Fig2.wikipedia
    done;
    Sparkle.Cluster.elapsed c
  in
  let base = lever false false false in
  addf "Fig 2 lever decomposition (speedup over default): jvm-only %.2fx, adaptive-shuffle-only %.2fx, tree-aggregate-only %.2fx, all %.2fx"
    (base /. lever true false false)
    (base /. lever false true false)
    (base /. lever false false true)
    (base /. lever true true true);
  (* 4. Data Broker vs both shuffle paths *)
  let c = Sparkle.Cluster.create (Sparkle.Cluster.default_config ~nodes:32 ()) in
  let db = Sparkle.Databroker.create c in
  let bytes = Lda.Fig2.wikipedia.Lda.Fig2.distinct_pairs *. 16.0 *. 8.0 in
  let broker_t = Sparkle.Databroker.shuffle_cost db ~bytes ~tuples:10_000_000 in
  let default_c = Sparkle.Cluster.create (Sparkle.Cluster.default_config ~nodes:32 ()) in
  Sparkle.Cluster.charge_shuffle default_c ~bytes;
  let adaptive_c = Sparkle.Cluster.create (Sparkle.Cluster.optimized_config ~nodes:32 ()) in
  Sparkle.Cluster.charge_shuffle adaptive_c ~bytes;
  addf "Data Broker shuffle (Wikipedia-scale): %.0f s vs default %.0f s vs adaptive %.0f s"
    broker_t
    (Hwsim.Clock.phase default_c.Sparkle.Cluster.clock "shuffle")
    (Hwsim.Clock.phase adaptive_c.Sparkle.Cluster.clock "shuffle");
  (* 5. PFMG vs Jacobi (structured-solver algorithms) *)
  let run_pfmg () =
    let clock = Hwsim.Clock.create () in
    let ctx = Prog.Exec.make_ctx ~policy:Prog.Policy.Cuda ~device:Hwsim.Device.v100 ~clock in
    let t = Hypre.Pfmg.create 63 in
    let f = Hypre.Pfmg.finest t in
    f.Hypre.Pfmg.b.(Hypre.Pfmg.idx f 32 32) <- 1.0;
    let cycles, _ = Hypre.Pfmg.solve ~tol:1e-8 ctx t in
    (cycles, Hwsim.Clock.total clock)
  in
  let run_jacobi () =
    let clock = Hwsim.Clock.create () in
    let ctx = Prog.Exec.make_ctx ~policy:Prog.Policy.Cuda ~device:Hwsim.Device.v100 ~clock in
    let lvl = Hypre.Pfmg.create_level 63 63 in
    lvl.Hypre.Pfmg.b.(Hypre.Pfmg.idx lvl 32 32) <- 1.0;
    let sweeps, _ = Hypre.Pfmg.jacobi ~tol:1e-8 ~max_sweeps:50000 ctx lvl in
    (sweeps, Hwsim.Clock.total clock)
  in
  let pc, pt = run_pfmg () and jc, jt = run_jacobi () in
  addf "structured solvers (63^2 Poisson): PFMG %d V-cycles (%.2f ms) vs Jacobi %d sweeps (%.2f ms) — %.0fx"
    pc (pt *. 1e3) jc (jt *. 1e3) (jt /. pt);
  (* 6. integrator work-precision on the oscillator at rtol 1e-6 *)
  let osc _t y = [| y.(1); -.y.(0) |] in
  let jac _t _y =
    Linalg.Dense.init 2 2 (fun i j -> if i = 0 && j = 1 then 1.0 else if i = 1 && j = 0 then -1.0 else 0.0)
  in
  let tf = 2.0 *. Float.pi in
  let bdf =
    Sundials.Cvode.bdf ~rtol:1e-6 ~atol:1e-9 ~rhs:osc
      ~lsolve:(Sundials.Cvode.dense_lsolve ~jac) ~t0:0.0 ~y0:[| 1.0; 0.0 |] tf
  in
  let erk =
    Sundials.Cvode.erk23 ~rtol:1e-6 ~atol:1e-9 ~rhs:osc ~t0:0.0 ~y0:[| 1.0; 0.0 |] tf
  in
  let adams =
    Sundials.Cvode.adams ~rtol:1e-6 ~atol:1e-9 ~rhs:osc ~t0:0.0 ~y0:[| 1.0; 0.0 |] tf
  in
  addf "integrator work-precision (oscillator, rtol 1e-6): BDF %d f-evals / err %.1e; ERK23 %d / %.1e; Adams %d / %.1e"
    bdf.Sundials.Cvode.stats.Sundials.Cvode.nfevals
    (Float.abs (bdf.Sundials.Cvode.y.(0) -. 1.0))
    erk.Sundials.Cvode.stats.Sundials.Cvode.nfevals
    (Float.abs (erk.Sundials.Cvode.y.(0) -. 1.0))
    adams.Sundials.Cvode.stats.Sundials.Cvode.nfevals
    (Float.abs (adams.Sundials.Cvode.y.(0) -. 1.0));
  (* 7. CPU fusion regression (Sec 4.8's dual lesson) *)
  let inputs8 =
    List.map
      (fun a -> (a, Array.init 64 (fun i -> float_of_int i)))
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  let base_k = Paradyn.Ir.paradyn_kernel in
  let _, cb = Paradyn.Interp.run base_k ~inputs:inputs8 in
  let _, cf = Paradyn.Interp.run (Paradyn.Passes.fuse base_k) ~inputs:inputs8 in
  addf "CPU fusion regression: small loops %.2f ms vs hand-fused %.2f ms on P9 (why SLNSP had to live in the compiler)"
    (Paradyn.Interp.cpu_time ~n:4_000_000 ~fused_source:false cb *. 1e3)
    (Paradyn.Interp.cpu_time ~n:4_000_000 ~fused_source:true cf *. 1e3);
  (* 8. direction-optimizing BFS *)
  let rng = Rng.create 13 in
  let gph = Havoq.Graph.rmat ~rng ~scale:12 () in
  let src = ref 0 in
  for v = 0 to gph.Havoq.Graph.n - 1 do
    if Havoq.Graph.degree gph v > Havoq.Graph.degree gph !src then src := v
  done;
  let td = Havoq.Bfs.top_down gph ~src:!src in
  let hy = Havoq.Bfs.hybrid gph ~src:!src in
  addf "direction-optimizing BFS (RMAT scale 12): %.1fx fewer edge inspections than top-down"
    (float_of_int td.Havoq.Bfs.edges_traversed /. float_of_int hy.Havoq.Bfs.edges_traversed);
  Harness.section "Ablations — the design choices behind the lessons learned"
    (Buffer.contents buf)

let harness =
  Harness.make ~id:"ablations"
    ~description:"Design-choice studies behind the lessons learned"
    ~tags:[ "study"; "activity:ablations" ]
    ablations
