(* Tests for the programming-model layer: loop pricing under policies,
   pools. *)

let check_float = Alcotest.(check (float 1e-12))

let mk_ctx ?(policy = Prog.Policy.Cuda) () =
  let clock = Hwsim.Clock.create () in
  (Prog.Exec.make_ctx ~policy ~device:Hwsim.Device.v100 ~clock, clock)

let test_forall_charges_time () =
  let ctx, clock = mk_ctx () in
  Prog.Exec.charge ctx ~phase:"loop" ~n:1000 ~flops_per:2.0 ~bytes_per:16.0;
  Alcotest.(check bool) "time charged" true (Hwsim.Clock.total clock > 0.0);
  (* an empty loop still pays exactly one launch *)
  let ctx, clock = mk_ctx () in
  Prog.Exec.charge ctx ~phase:"loop" ~n:0 ~flops_per:2.0 ~bytes_per:16.0;
  check_float "one launch"
    (Prog.Policy.launch_multiplier Prog.Policy.Cuda
    *. Hwsim.Device.v100.Hwsim.Device.launch_overhead_s)
    (Hwsim.Clock.total clock)

let test_fusion_cheaper_than_split () =
  (* The ParaDyn lesson: one fused loop beats many small loops because each
     launch pays overhead. *)
  let time_of k_loops n =
    let ctx, clock = mk_ctx () in
    for _ = 1 to k_loops do
      Prog.Exec.charge ctx ~phase:"loop" ~n:(n / k_loops) ~flops_per:1.0
        ~bytes_per:8.0
    done;
    Hwsim.Clock.total clock
  in
  let fused = time_of 1 10_000 in
  let split = time_of 100 10_000 in
  Alcotest.(check bool) "fused faster" true (fused < split)

let test_policy_ordering_on_gpu () =
  (* CUDA-shared >= CUDA > RAJA on a compute-heavy kernel (Sec 4.9). *)
  let time policy =
    let clock = Hwsim.Clock.create () in
    let ctx = Prog.Exec.make_ctx ~policy ~device:Hwsim.Device.v100 ~clock in
    Prog.Exec.charge ctx ~phase:"loop" ~n:1_000_000 ~flops_per:100.0 ~bytes_per:8.0;
    Hwsim.Clock.total clock
  in
  let t_cuda_sh = time Prog.Policy.Cuda_shared in
  let t_cuda = time Prog.Policy.Cuda in
  let t_raja = time Prog.Policy.Raja_cuda in
  Alcotest.(check bool) "shared fastest" true (t_cuda_sh < t_cuda);
  Alcotest.(check bool) "cuda beats raja" true (t_cuda < t_raja);
  (* the paper's number: RAJA ~30% slower than CUDA *)
  let penalty = (t_raja -. t_cuda) /. t_cuda in
  Alcotest.(check bool) "raja penalty in 20-60% band" true
    (penalty > 0.2 && penalty < 0.6)

let test_openmp_thread_scaling () =
  let time n_threads =
    let clock = Hwsim.Clock.create () in
    let ctx =
      Prog.Exec.make_ctx ~policy:(Prog.Policy.Openmp n_threads)
        ~device:Hwsim.Device.power9 ~clock
    in
    Prog.Exec.charge ctx ~phase:"loop" ~n:1_000_000 ~flops_per:50.0 ~bytes_per:8.0;
    Hwsim.Clock.total clock
  in
  Alcotest.(check bool) "22 threads beat 1" true (time 22 < time 1 /. 4.0)

let test_pool_amortizes () =
  let clock = Hwsim.Clock.create () in
  let p = Prog.Pool.create "test" in
  (* steady-state alloc/free cycle: only the first allocation is raw *)
  for _ = 1 to 100 do
    Prog.Pool.alloc p ~bytes:1024.0 ~clock;
    Prog.Pool.free p ~bytes:1024.0
  done;
  Alcotest.(check int) "one raw alloc" 1 p.Prog.Pool.raw_allocs;
  Alcotest.(check int) "99 pooled" 99 p.Prog.Pool.pooled_allocs;
  Alcotest.(check bool) "pool much cheaper than raw" true
    (Prog.Pool.pooled_cost p < Prog.Pool.unpooled_cost p /. 10.0)

let () =
  Alcotest.run "prog"
    [
      ( "exec",
        [
          Alcotest.test_case "forall charges" `Quick test_forall_charges_time;
          Alcotest.test_case "fusion beats split" `Quick test_fusion_cheaper_than_split;
          Alcotest.test_case "policy ordering" `Quick test_policy_ordering_on_gpu;
          Alcotest.test_case "openmp scaling" `Quick test_openmp_thread_scaling;
        ] );
      ("pool", [ Alcotest.test_case "amortizes" `Quick test_pool_amortizes ]);
    ]
