(* The domain pool and the parallel-equals-serial contract.

   Two layers of evidence:
   - qcheck properties that Icoe_par.Pool.parallel_for_chunks partitions
     the range and that per-chunk partials of parallel_for_chunks_i,
     folded in chunk order, match the serial chunk-ordered fold bitwise
     for arbitrary range sizes (including empty), chunkings and pool
     sizes; and
   - exact-agreement tests for the three engine kernels routed through
     the pool (SW4 acceleration, ddcMD forces, LDA E-step): the parallel
     path must equal its serial reference float-for-float, whatever
     ICOE_DOMAINS says. *)

module Pool = Icoe_par.Pool

(* the reference fold: same chunk layout, ascending, in one domain *)
let serial_fold ~chunk ~lo ~hi ~combine ~init map =
  let acc = ref init in
  let clo = ref lo in
  while !clo < hi do
    let chi = min hi (!clo + chunk) in
    acc := combine !acc (map !clo chi);
    clo := chi
  done;
  !acc

(* the kernels' idiom: each chunk writes its partial into slot [k], and
   the caller folds the slots in ascending [k] *)
let chunked_fold ~pool ?chunk ~lo ~hi ~combine ~init map =
  let partials = Array.make (Pool.num_chunks ?chunk ~lo ~hi ()) init in
  Pool.parallel_for_chunks_i ~pool ?chunk ~lo ~hi (fun k clo chi ->
      partials.(k) <- map clo chi);
  Array.fold_left combine init partials

let prop_parallel_for_chunks_partition =
  QCheck.Test.make ~name:"parallel_for_chunks partitions the range" ~count:80
    QCheck.(triple (int_bound 400) (int_range 1 60) (int_range 1 4))
    (fun (n, chunk, domains) ->
      let hits = Array.make (max n 1) 0 in
      Pool.with_pool ~domains (fun pool ->
          Pool.parallel_for_chunks ~pool ~chunk ~lo:0 ~hi:n (fun clo chi ->
              for i = clo to chi - 1 do
                hits.(i) <- hits.(i) + 1
              done));
      Array.for_all (fun c -> c = 1) (Array.sub hits 0 n))

let prop_chunk_partials =
  QCheck.Test.make
    ~name:"indexed chunk partials equal the chunk-ordered fold bitwise"
    ~count:80
    QCheck.(triple (int_bound 400) (int_range 1 60) (int_range 1 4))
    (fun (n, chunk, domains) ->
      (* a sum where float rounding makes the combine order observable *)
      let map lo hi =
        let s = ref 0.0 in
        for i = lo to hi - 1 do
          s := !s +. (1.0 /. (float_of_int i +. 1.0))
        done;
        !s
      in
      let expect = serial_fold ~chunk ~lo:0 ~hi:n ~combine:( +. ) ~init:0.0 map in
      let got =
        Pool.with_pool ~domains (fun pool ->
            chunked_fold ~pool ~chunk ~lo:0 ~hi:n ~combine:( +. ) ~init:0.0 map)
      in
      Float.equal got expect)

let prop_default_chunks =
  QCheck.Test.make
    ~name:"default chunks are pool-size independent" ~count:40
    QCheck.(pair (int_bound 2000) (int_range 2 4))
    (fun (n, domains) ->
      let map lo hi =
        let s = ref 0.0 in
        for i = lo to hi - 1 do
          s := !s +. sin (float_of_int i)
        done;
        !s
      in
      let serial =
        Pool.with_pool ~domains:1 (fun pool ->
            chunked_fold ~pool ~lo:0 ~hi:n ~combine:( +. ) ~init:0.0 map)
      in
      let par =
        Pool.with_pool ~domains (fun pool ->
            chunked_fold ~pool ~lo:0 ~hi:n ~combine:( +. ) ~init:0.0 map)
      in
      Float.equal serial par)

let test_empty_ranges () =
  Pool.with_pool ~domains:3 (fun pool ->
      Pool.parallel_for_chunks ~pool ~lo:0 ~hi:0 (fun _ _ ->
          Alcotest.fail "ran on empty");
      Pool.parallel_for_chunks ~pool ~lo:7 ~hi:3 (fun _ _ ->
          Alcotest.fail "ran on inverted");
      Pool.parallel_for_chunks_i ~pool ~lo:5 ~hi:5 (fun _ _ _ ->
          Alcotest.fail "ran indexed on empty");
      Alcotest.(check int) "empty range has no chunks" 0
        (Pool.num_chunks ~lo:5 ~hi:5 ()))

let test_exception_propagates () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.check_raises "worker exception reraised in caller"
        (Failure "chunk 57")
        (fun () ->
          Pool.parallel_for_chunks ~pool ~chunk:1 ~lo:0 ~hi:100 (fun i _ ->
              if i = 57 then failwith "chunk 57"));
      (* the pool survives a failed job *)
      Alcotest.(check int) "pool still works" 10
        (chunked_fold ~pool ~chunk:3 ~lo:0 ~hi:10 ~combine:( + ) ~init:0
           (fun lo hi -> hi - lo)))

let test_nested_calls () =
  Pool.with_pool ~domains:4 (fun pool ->
      let grid = Array.make_matrix 8 64 0 in
      Pool.parallel_for_chunks ~pool ~chunk:1 ~lo:0 ~hi:8 (fun r _ ->
          (* inner call from a worker chunk: degrades to serial, same result *)
          Pool.parallel_for_chunks ~pool ~chunk:8 ~lo:0 ~hi:64 (fun clo chi ->
              for c = clo to chi - 1 do
                grid.(r).(c) <- (r * 64) + c
              done));
      Alcotest.(check bool) "nested writes all landed" true
        (Array.for_all Fun.id
           (Array.mapi
              (fun r row -> Array.for_all Fun.id (Array.mapi (fun c v -> v = (r * 64) + c) row))
              grid)))

let test_pool_sizing () =
  Pool.with_pool ~domains:1 (fun p -> Alcotest.(check int) "size 1" 1 (Pool.size p));
  Pool.with_pool ~domains:3 (fun p -> Alcotest.(check int) "size 3" 3 (Pool.size p));
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Alcotest.(check int) "shut-down pool is serial" 1 (Pool.size p);
  (* still usable, serially *)
  Alcotest.(check int) "serial fallback works" 45
    (chunked_fold ~pool:p ~chunk:4 ~lo:0 ~hi:10 ~combine:( + ) ~init:0
       (fun lo hi ->
         let s = ref 0 in
         for i = lo to hi - 1 do s := !s + i done;
         !s))

let test_default_chunk () =
  Alcotest.(check int) "small ranges one big chunk" 16 (Pool.default_chunk 10);
  Alcotest.(check int) "64-way split beyond 1024" 32 (Pool.default_chunk 2048);
  Alcotest.(check bool) "at most 64 chunks" true
    (let n = 100_000 in
     (n + Pool.default_chunk n - 1) / Pool.default_chunk n <= 64)

(* --- parallel kernels equal their serial references, bitwise --- *)

let check_float_array name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Float.equal x b.(i)) then
        Alcotest.failf "%s differs at %d: %.17g vs %.17g" name i x b.(i))
    a

let test_sw4_acceleration_agreement () =
  let g = Sw4.Grid.create ~nx:48 ~ny:40 ~h:100.0 in
  Sw4.Grid.homogeneous g ~rho:2500.0 ~vp:5000.0 ~vs:2500.0;
  let n = 48 * 40 in
  let rng = Icoe_util.Rng.create 23 in
  let module Fbuf = Icoe_util.Fbuf in
  let ux = Fbuf.init n (fun _ -> Icoe_util.Rng.uniform rng (-1e-3) 1e-3) in
  let uy = Fbuf.init n (fun _ -> Icoe_util.Rng.uniform rng (-1e-3) 1e-3) in
  let ax_p = Fbuf.create n and ay_p = Fbuf.create n in
  let ax_s = Fbuf.create n and ay_s = Fbuf.create n in
  Sw4.Elastic.acceleration g (Sw4.Elastic.make_scratch g) ~ux ~uy ~ax:ax_p ~ay:ay_p;
  Sw4.Elastic.acceleration_seq g (Sw4.Elastic.make_scratch g) ~ux ~uy ~ax:ax_s ~ay:ay_s;
  check_float_array "sw4 ax" (Fbuf.to_array ax_p) (Fbuf.to_array ax_s);
  check_float_array "sw4 ay" (Fbuf.to_array ay_p) (Fbuf.to_array ay_s)

let test_md_forces_agreement () =
  let mk () =
    let rng = Icoe_util.Rng.create 31 in
    let p = Ddcmd.Particles.create ~n:216 ~box:7.5 in
    Ddcmd.Particles.lattice_init p;
    Ddcmd.Particles.thermalize p ~rng ~temp:0.7;
    Ddcmd.Engine.create ~dt:0.004 ~potential:(Ddcmd.Potential.lennard_jones ()) p
  in
  let e_par = mk () and e_seq = mk () in
  Ddcmd.Engine.compute_forces e_par;
  Ddcmd.Engine.compute_forces_seq e_seq;
  let fb = Icoe_util.Fbuf.to_array in
  check_float_array "md fx" (fb e_par.Ddcmd.Engine.p.Ddcmd.Particles.fx)
    (fb e_seq.Ddcmd.Engine.p.Ddcmd.Particles.fx);
  check_float_array "md fy" (fb e_par.Ddcmd.Engine.p.Ddcmd.Particles.fy)
    (fb e_seq.Ddcmd.Engine.p.Ddcmd.Particles.fy);
  check_float_array "md fz" (fb e_par.Ddcmd.Engine.p.Ddcmd.Particles.fz)
    (fb e_seq.Ddcmd.Engine.p.Ddcmd.Particles.fz);
  Alcotest.(check bool) "md epot equal" true
    (Float.equal e_par.Ddcmd.Engine.pot_energy e_seq.Ddcmd.Engine.pot_energy);
  Alcotest.(check bool) "md virial equal" true
    (Float.equal e_par.Ddcmd.Engine.virial e_seq.Ddcmd.Engine.virial);
  Alcotest.(check int) "md pair count equal" e_par.Ddcmd.Engine.pair_count
    e_seq.Ddcmd.Engine.pair_count

let test_lda_estep_agreement () =
  let rng = Icoe_util.Rng.create 41 in
  let corpus = Lda.Corpus.generate ~ndocs:24 ~rng () in
  let m = Lda.Vem.init ~rng ~k:corpus.Lda.Corpus.k_true ~vocab:corpus.Lda.Corpus.vocab () in
  let elogb = Lda.Vem.elog_beta m in
  let k = corpus.Lda.Corpus.k_true and vocab = corpus.Lda.Corpus.vocab in
  let s_par = Icoe_util.Fbuf.create (k * vocab) in
  let s_seq = Icoe_util.Fbuf.create (k * vocab) in
  let ll_par = Lda.Vem.e_step_docs m elogb corpus.Lda.Corpus.docs s_par in
  let ll_seq = Lda.Vem.e_step_docs_seq m elogb corpus.Lda.Corpus.docs s_seq in
  Alcotest.(check bool) "lda loglik equal" true (Float.equal ll_par ll_seq);
  check_float_array "lda stats"
    (Icoe_util.Fbuf.to_array s_par)
    (Icoe_util.Fbuf.to_array s_seq)

(* --- the pool/metrics hazard guard --- *)

let test_metrics_rejected_inside_job () =
  (* the metrics registry is not thread-safe; touching it from a worker
     chunk is a data-race hazard the pool now detects on every execution
     path (worker domain, submitter, serial fallback) *)
  let c = Icoe_obs.Metrics.counter "par_guard_probe_total" in
  Icoe_obs.Metrics.inc c;
  (* fine outside a job *)
  Alcotest.(check bool) "not in job outside" false (Pool.in_parallel_job ());
  let in_job = Array.make 8 false in
  let rejected = Array.make 8 false in
  Pool.with_pool ~domains:2 (fun pool ->
      Pool.parallel_for_chunks ~pool ~chunk:1 ~lo:0 ~hi:8 (fun i _ ->
          in_job.(i) <- Pool.in_parallel_job ();
          match Icoe_obs.Metrics.inc c with
          | () -> ()
          | exception Invalid_argument _ -> rejected.(i) <- true));
  Alcotest.(check bool) "flag set in every chunk" true
    (Array.for_all Fun.id in_job);
  Alcotest.(check bool) "every registry access rejected" true
    (Array.for_all Fun.id rejected);
  (* and the guard resets once the job completes *)
  Alcotest.(check bool) "not in job after" false (Pool.in_parallel_job ());
  Icoe_obs.Metrics.inc c

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_parallel_for_chunks_partition; prop_chunk_partials;
      prop_default_chunks ]

let () =
  Alcotest.run "par"
    [
      ("properties", qsuite);
      ( "pool",
        [
          Alcotest.test_case "empty ranges" `Quick test_empty_ranges;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "sizing + shutdown" `Quick test_pool_sizing;
          Alcotest.test_case "default chunk" `Quick test_default_chunk;
          Alcotest.test_case "metrics guarded in jobs" `Quick
            test_metrics_rejected_inside_job;
        ] );
      ( "kernels-parallel-equals-serial",
        [
          Alcotest.test_case "sw4 acceleration" `Quick test_sw4_acceleration_agreement;
          Alcotest.test_case "ddcmd forces" `Quick test_md_forces_agreement;
          Alcotest.test_case "lda e-step" `Quick test_lda_estep_agreement;
        ] );
    ]
