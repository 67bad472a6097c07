(* Tests for the Icoe_fault resilience layer: seeded plan determinism,
   the plan query algebra, bounded retries with deterministic backoff,
   the Young/Daly formula, the checkpoint/restart driver's accounting
   invariant, and — the acceptance-critical property — that
   restore-and-replay of the real engines (SW4, Cardioid, ddcMD, CVODE)
   reproduces the fault-free final state. *)

module F = Icoe_fault
module Plan = F.Plan
module Retry = F.Retry
module Checkpoint = F.Checkpoint

let check_float = Alcotest.(check (float 1e-9))

(* --- plans --- *)

let test_plan_determinism () =
  let a = Plan.generate ~seed:42 Plan.default_config in
  let b = Plan.generate ~seed:42 Plan.default_config in
  Alcotest.(check bool) "same seed, same schedule" true
    (Plan.node_failures a = Plan.node_failures b);
  Alcotest.(check bool) "same seed, same counts" true
    (Plan.counts a = Plan.counts b);
  let c = Plan.generate ~seed:43 Plan.default_config in
  Alcotest.(check bool) "different seed differs" true
    (Plan.node_failures a <> Plan.node_failures c
    || Plan.counts a <> Plan.counts c)

let test_plan_class_independence () =
  (* tweaking one hazard rate must not perturb the other classes *)
  let base = Plan.generate ~seed:7 Plan.default_config in
  let hotter_links =
    Plan.generate ~seed:7
      { Plan.default_config with link_mtbf_s = Plan.default_config.link_mtbf_s /. 4.0 }
  in
  Alcotest.(check bool) "node failures untouched" true
    (Plan.node_failures base = Plan.node_failures hotter_links)

let test_plan_disabled_classes () =
  let quiet =
    Plan.generate ~seed:11
      { Plan.default_config with
        node_mtbf_s = infinity; link_mtbf_s = infinity;
        straggler_mtbf_s = infinity; kernel_fault_mtbf_s = infinity }
  in
  Alcotest.(check bool) "no events at all" true
    (Plan.counts quiet = (0, 0, 0, 0));
  check_float "failure-free MTBF is the horizon"
    Plan.default_config.horizon_s (Plan.mtbf quiet);
  Alcotest.(check bool) "clean fabric" true
    (Plan.link_factors quiet ~now:1.0 = (1.0, 1.0));
  check_float "no stragglers" 1.0 (Plan.straggler_slowdown quiet ~now:1.0)

let test_plan_queries () =
  let p = Plan.generate ~seed:42 Plan.default_config in
  let failures = Plan.node_failures p in
  Alcotest.(check bool) "seed 42 schedules failures" true (failures <> []);
  (* sorted by time *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Plan.at <= b.Plan.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "failures sorted" true (sorted failures);
  (* next_node_failure is strictly-after *)
  let f0 = List.hd failures in
  (match Plan.next_node_failure p ~after:(-1.0) with
  | Some f -> check_float "first failure" f0.Plan.at f.Plan.at
  | None -> Alcotest.fail "expected a failure");
  (match Plan.next_node_failure p ~after:f0.Plan.at with
  | Some f -> Alcotest.(check bool) "strictly after" true (f.Plan.at > f0.Plan.at)
  | None -> ());
  Alcotest.(check bool) "none after the horizon" true
    (Plan.next_node_failure p ~after:Plan.default_config.horizon_s = None);
  (* the struck node is down during its repair window, up after *)
  Alcotest.(check bool) "down during repair" true
    (Plan.node_down p ~node:f0.Plan.node ~now:(f0.Plan.at +. 1e-6));
  Alcotest.(check bool) "up before the failure" false
    (Plan.node_down p ~node:f0.Plan.node ~now:(f0.Plan.at -. 1e-6));
  (* kernel faults over the full horizon match the counts *)
  let _, _, _, kf = Plan.counts p in
  Alcotest.(check int) "kernel faults windowed" kf
    (Plan.kernel_faults_in p ~a:(-1.0) ~b:Plan.default_config.horizon_s)

let test_for_run_scaling () =
  (* the derived plan targets ~4 expected failures per run at
     intensity 1: mtbf should be within a factor of a few of ideal/4 *)
  let p = Plan.for_run (Plan.spec 42) ~ideal_s:400.0 ~nodes:64 in
  let nf, _, _, _ = Plan.counts p in
  Alcotest.(check bool) "some failures scheduled" true (nf >= 1);
  let p2 = Plan.for_run (Plan.spec 42) ~ideal_s:400.0 ~nodes:64 in
  Alcotest.(check bool) "derivation deterministic" true
    (Plan.node_failures p = Plan.node_failures p2);
  let hot = Plan.for_run (Plan.spec ~intensity:8.0 42) ~ideal_s:400.0 ~nodes:64 in
  let nf_hot, _, _, _ = Plan.counts hot in
  Alcotest.(check bool) "intensity raises the hazard" true (nf_hot > nf)

(* --- retry --- *)

let test_backoff_deterministic () =
  let seq seed =
    let rng = Icoe_util.Rng.create seed in
    List.map
      (fun attempt -> Retry.backoff_s Retry.default_policy ~rng ~attempt)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list (float 1e-12))) "same rng, same backoffs"
    (seq 5) (seq 5);
  (* geometric growth holds despite jitter (25% < x2 growth) *)
  (match seq 5 with
  | [ a; b; c; d ] ->
      Alcotest.(check bool) "growing" true (a < b && b < c && c < d)
  | _ -> Alcotest.fail "expected 4 delays");
  Alcotest.(check bool) "different rng differs" true (seq 5 <> seq 6)

let test_retry_gives_up () =
  let rng = Icoe_util.Rng.create 3 in
  let charged = ref 0.0 in
  let tries = ref 0 in
  let result, o =
    Retry.run ~rng ~charge:(fun dt -> charged := !charged +. dt)
      (fun ~attempt ->
        incr tries;
        Alcotest.(check int) "attempt number" !tries attempt;
        Error "down")
  in
  Alcotest.(check bool) "last error returned" true (result = Error "down");
  Alcotest.(check int) "bounded attempts"
    Retry.default_policy.Retry.max_attempts o.Retry.attempts;
  Alcotest.(check bool) "gave up" true o.Retry.gave_up;
  check_float "charge equals backoff total" !charged o.Retry.backoff_total_s;
  Alcotest.(check bool) "backoff actually charged" true (!charged > 0.0)

let test_retry_succeeds () =
  let rng = Icoe_util.Rng.create 3 in
  let result, o =
    Retry.run ~rng ~charge:ignore (fun ~attempt ->
        if attempt < 3 then Error () else Ok "up")
  in
  Alcotest.(check bool) "value returned" true (result = Ok "up");
  Alcotest.(check int) "stopped at success" 3 o.Retry.attempts;
  Alcotest.(check bool) "did not give up" false o.Retry.gave_up

(* --- Young/Daly --- *)

let test_young_daly () =
  check_float "tau = sqrt(2 delta M)"
    (sqrt (2.0 *. 60.0 *. 7200.0))
    (Checkpoint.young_daly_s ~mtbf_s:7200.0 ~checkpoint_cost_s:60.0);
  Alcotest.(check int) "rounded to steps" 9
    (Checkpoint.young_daly_steps ~mtbf_s:7200.0 ~checkpoint_cost_s:60.0
       ~step_cost_s:100.0);
  (* never below one step, even for brutal fault rates *)
  Alcotest.(check int) "at least 1" 1
    (Checkpoint.young_daly_steps ~mtbf_s:1.0 ~checkpoint_cost_s:1e-6
       ~step_cost_s:10.0)

(* --- checkpoint/restart driver --- *)

let test_checkpoint_accounting () =
  (* drive a trivial engine (a step counter) through a hot plan and
     check the report invariant achieved = ideal + overhead + lost *)
  let plan = Plan.for_run (Plan.spec ~intensity:4.0 42) ~ideal_s:100.0 ~nodes:16 in
  let state = ref 0 in
  let saved = ref 0 in
  let rep =
    Checkpoint.run ~plan ~restart_cost_s:0.5 ~step_cost_s:1.0
      ~checkpoint_cost_s:0.25 ~interval:10 ~steps:100
      ~snapshot:(fun () -> !state)
      ~restore:(fun s ->
        saved := !saved + 1;
        state := s)
      ~step:(fun i ->
        Alcotest.(check int) "steps arrive in replay order" i !state;
        incr state)
      ()
  in
  Alcotest.(check int) "engine reached the end" 100 !state;
  Alcotest.(check bool) "failures struck" true (rep.Checkpoint.injected >= 1);
  Alcotest.(check int) "every failure recovered"
    rep.Checkpoint.injected rep.Checkpoint.recovered;
  Alcotest.(check int) "restore called per recovery"
    rep.Checkpoint.recovered !saved;
  check_float "ideal" 100.0 rep.Checkpoint.ideal_s;
  Alcotest.(check (float 1e-6)) "achieved = ideal + overhead + lost"
    rep.Checkpoint.achieved_s
    (rep.Checkpoint.ideal_s +. rep.Checkpoint.checkpoint_overhead_s
    +. rep.Checkpoint.lost_work_s);
  Alcotest.(check bool) "inflation > 1" true (Checkpoint.inflation rep > 1.0)

let test_checkpoint_failure_free () =
  let quiet =
    Plan.generate ~seed:1
      { Plan.default_config with node_mtbf_s = infinity }
  in
  let rep =
    Checkpoint.run ~plan:quiet ~step_cost_s:1.0 ~checkpoint_cost_s:0.5
      ~interval:25 ~steps:100
      ~snapshot:(fun () -> ()) ~restore:(fun () -> ()) ~step:ignore ()
  in
  Alcotest.(check int) "nothing injected" 0 rep.Checkpoint.injected;
  (* 100 steps, interval 25, no checkpoint after the final step *)
  Alcotest.(check int) "periodic checkpoints" 3 rep.Checkpoint.checkpoints;
  check_float "only checkpoint overhead paid" 101.5 rep.Checkpoint.achieved_s;
  check_float "no lost work" 0.0 rep.Checkpoint.lost_work_s

let test_checkpoint_tiny_mtbf_end_to_end () =
  (* regression for the interval guard: a brutal fault rate drives the
     Young/Daly period below one step; young_daly_steps must clamp to 1
     (not 0 — interval 0 used to raise) and the driver must still carry
     a real engine to the exact fault-free answer under a storm of
     failures *)
  let step_cost_s = 1.0 in
  let interval =
    Checkpoint.young_daly_steps ~mtbf_s:3.0 ~checkpoint_cost_s:0.01
      ~step_cost_s
  in
  Alcotest.(check int) "brutal MTBF clamps to every-step" 1 interval;
  let plan = Plan.for_run (Plan.spec ~intensity:12.0 7) ~ideal_s:40.0 ~nodes:64 in
  let state = ref 0 in
  let rep =
    Checkpoint.run ~plan ~restart_cost_s:0.2 ~step_cost_s
      ~checkpoint_cost_s:0.01 ~interval ~steps:40
      ~snapshot:(fun () -> !state)
      ~restore:(fun s -> state := s)
      ~step:(fun i ->
        Alcotest.(check int) "replay order preserved" i !state;
        incr state)
      ()
  in
  Alcotest.(check int) "engine reached the end" 40 !state;
  Alcotest.(check bool) "storm struck" true (rep.Checkpoint.injected >= 1);
  Alcotest.(check int) "every failure recovered" rep.Checkpoint.injected
    rep.Checkpoint.recovered;
  Alcotest.(check (float 1e-6)) "achieved = ideal + overhead + lost"
    rep.Checkpoint.achieved_s
    (rep.Checkpoint.ideal_s +. rep.Checkpoint.checkpoint_overhead_s
    +. rep.Checkpoint.lost_work_s)

let test_checkpoint_deterministic () =
  let run () =
    let plan = Plan.for_run (Plan.spec 9) ~ideal_s:64.0 ~nodes:8 in
    Checkpoint.run ~plan ~step_cost_s:1.0 ~checkpoint_cost_s:0.25 ~interval:8
      ~steps:64 ~snapshot:(fun () -> ()) ~restore:(fun () -> ()) ~step:ignore ()
  in
  Alcotest.(check bool) "identical reports across repeats" true (run () = run ())

(* --- engine recovery equality --- *)

let test_sw4_recovery_equality () =
  let plan, interval, rep, identical =
    Icoe.Harness_sw4.resilience_run (Plan.spec 42)
  in
  let nf, _, _, _ = Plan.counts plan in
  Alcotest.(check bool) "plan has failures" true (nf >= 1);
  Alcotest.(check bool) "interval positive" true (interval >= 1);
  Alcotest.(check bool) "failure injected" true (rep.Checkpoint.injected >= 1);
  Alcotest.(check bool) "failure recovered" true (rep.Checkpoint.recovered >= 1);
  Alcotest.(check bool) "recovered state bit-identical" true identical;
  (* determinism across repeats: the whole report must match *)
  let _, _, rep2, identical2 = Icoe.Harness_sw4.resilience_run (Plan.spec 42) in
  Alcotest.(check bool) "repeat run identical" true (rep = rep2 && identical2)

let test_cardioid_recovery_equality () =
  let _, interval, rep, identical =
    Icoe.Harness_cardioid.resilience_run (Plan.spec 42)
  in
  Alcotest.(check bool) "interval positive" true (interval >= 1);
  Alcotest.(check bool) "failure injected" true (rep.Checkpoint.injected >= 1);
  Alcotest.(check bool) "failure recovered" true (rep.Checkpoint.recovered >= 1);
  Alcotest.(check bool) "recovered state bit-identical" true identical

(* --- fcluster --- *)

let test_fcluster_deterministic () =
  let job () =
    let plan = Plan.for_run (Plan.spec 42) ~ideal_s:60.0 ~nodes:16 in
    let fc = F.Fcluster.create plan (Sparkle.Cluster.optimized_config ~nodes:16 ()) in
    for _ = 1 to 30 do
      F.Fcluster.charge_compute fc ~flops:2e12;
      F.Fcluster.charge_shuffle fc ~bytes:1.5e9;
      F.Fcluster.charge_aggregate fc ~bytes_per_node:2e7
    done;
    (F.Fcluster.elapsed fc, F.Fcluster.stats fc)
  in
  let e1, s1 = job () and e2, s2 = job () in
  Alcotest.(check bool) "elapsed bit-identical" true (Float.equal e1 e2);
  Alcotest.(check bool) "stats identical" true (s1 = s2);
  Alcotest.(check bool) "recoveries bounded by injections" true
    (s1.F.Fcluster.recovered + s1.F.Fcluster.gave_up = s1.F.Fcluster.injected)

(* --- context --- *)

let test_context_scoping () =
  Alcotest.(check bool) "empty by default" true (F.Context.current () = None);
  let spec = Plan.spec ~intensity:2.0 7 in
  let seen =
    F.Context.with_spec spec (fun () ->
        let inner = Plan.spec 8 in
        let nested =
          F.Context.with_spec inner (fun () -> F.Context.current ())
        in
        Alcotest.(check bool) "nested spec wins" true (nested = Some inner);
        F.Context.current ())
  in
  Alcotest.(check bool) "spec visible in scope" true (seen = Some spec);
  Alcotest.(check bool) "restored after" true (F.Context.current () = None);
  (* exception-safe *)
  (try F.Context.with_spec spec (fun () -> failwith "boom") with _ -> ());
  Alcotest.(check bool) "restored after raise" true (F.Context.current () = None)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "class independence" `Quick
            test_plan_class_independence;
          Alcotest.test_case "disabled classes" `Quick test_plan_disabled_classes;
          Alcotest.test_case "queries" `Quick test_plan_queries;
          Alcotest.test_case "for_run scaling" `Quick test_for_run_scaling;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff deterministic" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "gives up" `Quick test_retry_gives_up;
          Alcotest.test_case "succeeds" `Quick test_retry_succeeds;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "young/daly" `Quick test_young_daly;
          Alcotest.test_case "accounting invariant" `Quick
            test_checkpoint_accounting;
          Alcotest.test_case "failure-free" `Quick test_checkpoint_failure_free;
          Alcotest.test_case "tiny-MTBF end to end" `Quick
            test_checkpoint_tiny_mtbf_end_to_end;
          Alcotest.test_case "deterministic" `Quick test_checkpoint_deterministic;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "sw4 bit-identical" `Slow test_sw4_recovery_equality;
          Alcotest.test_case "cardioid bit-identical" `Slow
            test_cardioid_recovery_equality;
        ] );
      ( "inject",
        [
          Alcotest.test_case "fcluster deterministic" `Quick
            test_fcluster_deterministic;
        ] );
      ( "context",
        [ Alcotest.test_case "scoping" `Quick test_context_scoping ] );
    ]
