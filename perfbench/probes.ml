(* Layer probes of the traced run: direct calls into one layer's public
   functions, timed per call or as one span, with the output of each
   call checked. Each probe returns (name, value, unit) metric rows.

   Per-call timings are reported as a median plus the highest whole
   percentile with at least ten samples above it, and the sample count. *)

let per_call name ~n f =
  let s = Span.sample ~n f in
  let tail = Span.tail_percentile n in
  [
    (name, Span.median s, "us");
    ( Printf.sprintf "%s.p%d" name tail,
      Span.percentile s (float_of_int tail),
      "us" );
  ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_fbuf (a : Icoe_util.Fbuf.t) (b : Icoe_util.Fbuf.t) =
  let n = Bigarray.Array1.dim a in
  n = Bigarray.Array1.dim b
  &&
  let rec go i = i >= n || (same_bits a.{i} b.{i} && go (i + 1)) in
  go 0

let same_floats a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* ---- dlearn: the Table 3 study and the KAVG harness arguments ---- *)

let dlearn_calls = 1000

let dlearn ~tally ~seed =
  let open Dlearn in
  let check = Workloads.check tally in
  let rng = Icoe_util.Rng.create seed in
  let study =
    Span.record "dlearn.prepare" (fun () ->
        Videonet.prepare ~rng:(Icoe_util.Rng.split rng) Videonet.Easy)
  in
  let combiners =
    Videonet.
      [
        Single 0; Single 1; Single 2; Simple_average; Weighted_average;
        Logistic_regression; Shallow_nn; End_to_end;
      ]
  in
  let accuracies =
    Span.record "dlearn.evaluate" (fun () ->
        List.map
          (Videonet.evaluate ~rng:(Icoe_util.Rng.split rng) study)
          combiners)
  in
  check "dlearn: every combiner accuracy in (0, 1]"
    (List.for_all (fun a -> a > 0.0 && a <= 1.0) accuracies);
  (* the Table 3 stream classifier: softmax regression, 10 features, 8
     classes *)
  let m = Mlp.create ~rng:(Icoe_util.Rng.split rng) [| 10; 8 |] in
  let x = Array.init 10 (fun _ -> Icoe_util.Rng.gaussian rng) in
  let label = Icoe_util.Rng.int rng 8 in
  let backward () = ignore (Mlp.backward m x ~label) in
  let timings =
    per_call "dlearn.backward_us" ~n:dlearn_calls backward
    @ per_call "dlearn.sgd_step_us" ~n:dlearn_calls (fun () ->
          Mlp.sgd_step m ~lr:0.01 ~batch:1)
    @ per_call "dlearn.predict_proba_us" ~n:dlearn_calls (fun () ->
          ignore (Mlp.predict_proba m x))
  in
  let words () =
    let w0 = Gc.minor_words () in
    for _ = 1 to dlearn_calls do
      backward ()
    done;
    Gc.minor_words () -. w0
  in
  let w = words () in
  check "dlearn: backward allocates the same words on every call"
    (w = words ());
  let p = Mlp.predict_proba m x in
  check "dlearn: predict_proba is a distribution"
    (Float.abs (Array.fold_left ( +. ) 0.0 p -. 1.0) < 1e-9);
  (* the kavg harness arguments *)
  let sizes = [| 12; 16; 4 |] in
  let task () =
    Distributed.make_task ~rng:(Icoe_util.Rng.create (seed + 1)) ~spread:1.6 ()
  in
  let trained what f =
    let r = Span.record ("dlearn." ^ what) f in
    check ("dlearn: " ^ what ^ " loss is finite")
      (Float.is_finite r.Distributed.final_loss
      && r.Distributed.final_accuracy >= 0.0
      && r.Distributed.final_accuracy <= 1.0)
  in
  let train_rng () = Icoe_util.Rng.create (seed + 2) in
  trained "kavg" (fun () ->
      Distributed.kavg ~rng:(train_rng ()) ~learners:8 ~rounds:100 ~k:8
        ~batch:16 ~lr:0.2 sizes (task ()));
  trained "asgd" (fun () ->
      Distributed.asgd ~rng:(train_rng ()) ~learners:8 ~steps:800 ~batch:16
        ~lr:0.2 ~staleness:16 sizes (task ()));
  trained "sync_sgd" (fun () ->
      Distributed.sync_sgd ~rng:(train_rng ()) ~learners:8 ~steps:800
        ~batch:16 ~lr:0.2 sizes (task ()));
  [
    ("dlearn.prepare_s", Span.seconds_of "dlearn.prepare", "s");
    ("dlearn.evaluate_s", Span.seconds_of "dlearn.evaluate", "s");
    ("dlearn.probe_calls", float_of_int dlearn_calls, "count");
    (* whole words: the two [Gc.minor_words] reads box one float each *)
    ( "dlearn.backward_words",
      Float.round (w /. float_of_int dlearn_calls),
      "words" );
    ("dlearn.kavg_s", Span.seconds_of "dlearn.kavg", "s");
    ("dlearn.asgd_s", Span.seconds_of "dlearn.asgd", "s");
    ("dlearn.sync_sgd_s", Span.seconds_of "dlearn.sync_sgd", "s");
  ]
  @ timings

(* ---- par: pool dispatch and the five pooled kernels vs their serial
   oracles, at the sizes the harnesses use ---- *)

let dispatch_calls = 1000
let kernel_calls = 100

(* [pair name ~pooled ~seq ~same] times the two paths call by call,
   interleaved so drift hits both alike, then checks the results are
   bit-identical. *)
let pair ~tally name ~pooled ~seq ~same =
  for _ = 1 to 3 do
    pooled ();
    seq ()
  done;
  let tp = Array.make kernel_calls 0.0 and ts = Array.make kernel_calls 0.0 in
  for i = 0 to kernel_calls - 1 do
    tp.(i) <- (Span.sample ~n:1 pooled).(0);
    ts.(i) <- (Span.sample ~n:1 seq).(0)
  done;
  Array.sort Float.compare tp;
  Array.sort Float.compare ts;
  Workloads.check tally
    ("par." ^ name ^ ": pooled result is bit-identical to the serial oracle")
    (same ());
  let tail = Span.tail_percentile kernel_calls in
  let p = float_of_int tail in
  let k = "par." ^ name in
  [
    (k ^ ".pooled_us", Span.median tp, "us");
    (Printf.sprintf "%s.pooled_us.p%d" k tail, Span.percentile tp p, "us");
    (k ^ ".seq_us", Span.median ts, "us");
    (Printf.sprintf "%s.seq_us.p%d" k tail, Span.percentile ts p, "us");
    (k ^ ".speedup", Span.median ts /. Span.median tp, "ratio");
  ]

let spmv ~tally ~rng =
  (* hypre's 12^3 Laplacian *)
  let a = Linalg.Csr.laplacian_3d 12 12 12 in
  let n = 12 * 12 * 12 in
  let x = Array.init n (fun _ -> Icoe_util.Rng.gaussian rng) in
  let y1 = Array.make n 0.0 and y2 = Array.make n 0.0 in
  pair ~tally "spmv"
    ~pooled:(fun () -> Linalg.Csr.spmv_into a x y1)
    ~seq:(fun () -> Linalg.Csr.spmv_seq_into a x y2)
    ~same:(fun () -> same_floats y1 y2)

let sw4 ~tally ~rng =
  (* the Hayward run's 120 x 72 grid *)
  let nx = 120 and ny = 72 in
  let g = Sw4.Grid.create ~nx ~ny ~h:100.0 in
  Sw4.Grid.homogeneous g ~rho:2600.0 ~vp:5000.0 ~vs:2900.0;
  let scr = Sw4.Elastic.make_scratch g in
  let field () =
    Icoe_util.Fbuf.init (nx * ny) (fun _ ->
        1e-4 *. Icoe_util.Rng.gaussian rng)
  in
  let ux = field () and uy = field () in
  let a1 = (Icoe_util.Fbuf.create (nx * ny), Icoe_util.Fbuf.create (nx * ny))
  and a2 = (Icoe_util.Fbuf.create (nx * ny), Icoe_util.Fbuf.create (nx * ny)) in
  pair ~tally "sw4"
    ~pooled:(fun () ->
      Sw4.Elastic.acceleration g scr ~ux ~uy ~ax:(fst a1) ~ay:(snd a1))
    ~seq:(fun () ->
      Sw4.Elastic.acceleration_seq g scr ~ux ~uy ~ax:(fst a2) ~ay:(snd a2))
    ~same:(fun () -> same_fbuf (fst a1) (fst a2) && same_fbuf (snd a1) (snd a2))

let md ~tally ~rng =
  (* the md harness's 125-particle Lennard-Jones box *)
  let p = Ddcmd.Particles.create ~n:125 ~box:6.5 in
  Ddcmd.Particles.lattice_init p;
  Ddcmd.Particles.thermalize p ~rng ~temp:0.7;
  let e =
    Ddcmd.Engine.create ~dt:0.004 ~potential:(Ddcmd.Potential.lennard_jones ())
      p
  in
  let forces () =
    Icoe_util.Fbuf.(copy p.fx, copy p.fy, copy p.fz)
  in
  pair ~tally "md"
    ~pooled:(fun () -> Ddcmd.Engine.compute_forces e)
    ~seq:(fun () -> Ddcmd.Engine.compute_forces_seq e)
    ~same:(fun () ->
      Ddcmd.Engine.compute_forces e;
      let fx, fy, fz = forces () in
      Ddcmd.Engine.compute_forces_seq e;
      same_fbuf fx p.fx && same_fbuf fy p.fy && same_fbuf fz p.fz)

let cardioid ~tally =
  (* the cardioid harness's 24 x 8 tissue; two copies stepped in
     lockstep, one per path *)
  let tissue () =
    let m =
      Cardioid.Monodomain.create ~nx:24 ~ny:8
        ~variant:Cardioid.Ionic.Rational ()
    in
    Cardioid.Monodomain.stimulate m ~ilo:0 ~ihi:2 ~jlo:0 ~jhi:7 ~amplitude:60.0;
    m
  in
  let m1 = tissue () and m2 = tissue () in
  pair ~tally "cardioid"
    ~pooled:(fun () -> Cardioid.Monodomain.reaction_step m1)
    ~seq:(fun () -> Cardioid.Monodomain.reaction_step_seq m2)
    ~same:(fun () -> same_fbuf m1.state m2.state && same_fbuf m1.v m2.v)

let lda ~tally ~rng =
  (* the fig2 corpus size *)
  let corpus = Lda.Corpus.generate ~ndocs:160 ~rng () in
  let model =
    Lda.Vem.init ~rng ~k:corpus.Lda.Corpus.k_true ~vocab:corpus.Lda.Corpus.vocab
      ()
  in
  let elogb = Lda.Vem.elog_beta model in
  let stats () = Icoe_util.Fbuf.create (Bigarray.Array1.dim elogb) in
  let s1 = stats () and s2 = stats () in
  let r1 = ref 0.0 and r2 = ref 0.0 in
  let run f s r () =
    Icoe_util.Fbuf.fill s 0.0;
    r := f model elogb corpus.Lda.Corpus.docs s
  in
  pair ~tally "lda"
    ~pooled:(run Lda.Vem.e_step_docs s1 r1)
    ~seq:(run Lda.Vem.e_step_docs_seq s2 r2)
    ~same:(fun () -> same_bits !r1 !r2 && same_fbuf s1 s2)

let par ~tally ~seed =
  let module Pool = Icoe_par.Pool in
  let domains = Pool.size (Pool.get ()) in
  let dispatch =
    Pool.with_pool ~domains (fun pool ->
        per_call "par.dispatch_us" ~n:dispatch_calls (fun () ->
            Pool.parallel_for_chunks ~pool ~chunk:1 ~lo:0 ~hi:domains
              (fun _ _ -> ())))
  in
  let rng = Icoe_util.Rng.create seed in
  [
    ("par.domains", float_of_int domains, "count");
    ("par.dispatch_calls", float_of_int dispatch_calls, "count");
    ("par.kernel_calls", float_of_int kernel_calls, "count");
  ]
  @ dispatch @ spmv ~tally ~rng @ sw4 ~tally ~rng @ md ~tally ~rng
  @ cardioid ~tally @ lda ~tally ~rng

(* ---- hwsim / obs: the cost models and the blame analysis ---- *)

let model_calls = 1000

let hwsim ~tally =
  let check = Workloads.check tally in
  let sw4_model () =
    Sw4.Scenario.production_step_model ~overlap:true Hwsim.Node.sierra
      ~nodes:256 ~grid_points:26.0e9
  in
  let m = sw4_model () in
  check "hwsim: sw4 step model overlapped <= serial"
    (m.Sw4.Scenario.overlapped_s > 0.0
    && m.Sw4.Scenario.overlapped_s <= m.Sw4.Scenario.serial_s);
  let machine = Hwsim.Node.frontier in
  let kavg_model () =
    Dlearn.Distributed.kavg_round_model ~overlap:true
      ~topology:machine.Hwsim.Node.topology
      ~placement:Hwsim.Topology.Random_spread ~learners:512 ~k:8 ~batch:32
      [| 256; 512; 128; 16 |]
  in
  check "hwsim: kavg round model is positive"
    ((kavg_model ()).Dlearn.Distributed.round_s > 0.0);
  let dag = m.Sw4.Scenario.dag in
  let a = Icoe_obs.Prof.analyze ~overlap:true dag in
  let blamed =
    List.fold_left
      (fun acc (b : Icoe_obs.Prof.blame) -> acc +. b.seconds)
      0.0 a.Icoe_obs.Prof.phase_blame
  in
  check "obs: phase blame sums to the makespan"
    (Float.abs (blamed -. a.Icoe_obs.Prof.makespan)
    <= 1e-9 *. a.Icoe_obs.Prof.makespan);
  [ ("hwsim.probe_calls", float_of_int model_calls, "count") ]
  @ per_call "hwsim.sw4_model_us" ~n:model_calls (fun () ->
        ignore (sw4_model ()))
  @ per_call "hwsim.kavg_model_us" ~n:model_calls (fun () ->
        ignore (kavg_model ()))
  @ per_call "obs.prof_analyze_us" ~n:model_calls (fun () ->
        ignore (Icoe_obs.Prof.analyze ~overlap:true dag))

(* ---- opt: the opt harness's topology optimization ---- *)

let topopt ~tally =
  let design = Opt.Topopt.create ~nx:20 ~ny:16 () in
  let history =
    Span.record "opt.topopt" (fun () -> Opt.Topopt.optimize ~iters:40 design)
  in
  Workloads.check tally "opt: topopt compliance is finite and positive"
    (Array.length history > 0
    && Float.is_finite design.Opt.Topopt.compliance
    && design.Opt.Topopt.compliance > 0.0);
  [
    ("opt.topopt_s", Span.seconds_of "opt.topopt", "s");
    ("opt.cg_iters", float_of_int design.Opt.Topopt.cg_iters_total, "count");
  ]
