(** The machine as a shared service: multi-tenant job streams over the
    reproduced workloads (ROADMAP's "millions of users" direction,
    generalizing the Sec 4.7 scheduler study from a 16-GPU pool to node
    allocations on the Sierra model). *)

open Icoe_util
module Svc = Icoe_svc

let zipf_s = 1.1
let nodes = 256

let record_results (m : Svc.Cluster.metrics) =
  let policy = m.Svc.Cluster.policy in
  Harness.record_row ~section:"service" ~unit:"jobs/s" ~higher_better:true
    (policy ^ "/jobs_per_s") m.Svc.Cluster.jobs_per_s;
  Harness.record_row ~section:"service" ~unit:"s" (policy ^ "/wait_p99_s")
    m.Svc.Cluster.wait_p99;
  let check what ok = Harness.record_check ("svc/" ^ policy ^ "/" ^ what) ok in
  check "completed=submitted"
    (m.Svc.Cluster.completed = m.Svc.Cluster.submitted);
  check "jobs_per_s>0" (m.Svc.Cluster.jobs_per_s > 0.0);
  check "utilization-in-(0,1]"
    (m.Svc.Cluster.utilization > 0.0 && m.Svc.Cluster.utilization <= 1.0);
  check "wait_p99>=p50" (m.Svc.Cluster.wait_p99 >= m.Svc.Cluster.wait_p50)

let svc () =
  let machine = Svc.Catalog.machine ~nodes () in
  let classes = Svc.Catalog.default machine in
  let cap = Svc.Workload.capacity ~classes ~zipf_s ~nodes in
  (* policy study: one fixed stream at 90% of capacity through all four
     policies *)
  let horizon = 30_000.0 in
  let stream =
    Svc.Workload.generate ~rng:(Rng.create 77) ~classes ~zipf_s
      ~arrivals:(Svc.Workload.Poisson (0.9 *. cap)) ~horizon ()
  in
  let policies =
    [
      Svc.Cluster.Fcfs;
      Svc.Cluster.Easy_backfill;
      Svc.Cluster.Sjf_quota 0.5;
      Svc.Cluster.Partition 0.5;
    ]
  in
  let t =
    Table.create
      ~title:
        (Fmt.str "service: %d jobs on %d %s nodes (90%% of capacity)"
           (List.length stream) nodes machine.Hwsim.Node.node.Hwsim.Node.name)
      ~aligns:
        [|
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right;
        |]
      [
        "policy"; "jobs/s"; "util";
        "wait p50"; "p90"; "p99";
        "turn p50"; "p90"; "p99";
      ]
  in
  let results =
    List.map (fun pol -> Svc.Cluster.simulate ~nodes ~classes pol stream) policies
  in
  List.iter
    (fun (m : Svc.Cluster.metrics) ->
      record_results m;
      Table.add_row t
        [
          m.Svc.Cluster.policy;
          Table.fcell ~prec:4 m.Svc.Cluster.jobs_per_s;
          Table.fcell ~prec:3 m.Svc.Cluster.utilization;
          Table.fcell ~prec:0 m.Svc.Cluster.wait_p50;
          Table.fcell ~prec:0 m.Svc.Cluster.wait_p90;
          Table.fcell ~prec:0 m.Svc.Cluster.wait_p99;
          Table.fcell ~prec:0 m.Svc.Cluster.turn_p50;
          Table.fcell ~prec:0 m.Svc.Cluster.turn_p90;
          Table.fcell ~prec:0 m.Svc.Cluster.turn_p99;
        ])
    results;
  (* saturation sweep: the paper's throttling conclusion at machine
     scale — below capacity waits are bounded, above they grow with the
     horizon (unbounded queue) *)
  let sweep =
    List.map
      (fun mult ->
        let jobs =
          Svc.Workload.generate ~rng:(Rng.create 909) ~classes ~zipf_s
            ~arrivals:(Svc.Workload.Poisson (mult *. cap)) ~horizon:20_000.0 ()
        in
        (mult, Svc.Cluster.simulate ~nodes ~classes Svc.Cluster.Easy_backfill jobs))
      [ 0.8; 1.0; 1.3 ]
  in
  (* bursty arrivals at the same mean offered load as the 90% stream:
     burst dwell 600 s at 2.8x, quiet dwell 1800 s at 0.4x *)
  let r = 0.9 *. cap in
  let bursty_jobs =
    Svc.Workload.generate ~rng:(Rng.create 303) ~classes ~zipf_s
      ~arrivals:
        (Svc.Workload.Bursty
           {
             rate_hi = 2.8 *. r;
             rate_lo = 0.4 *. r;
             mean_hi_s = 600.0;
             mean_lo_s = 1800.0;
           })
      ~horizon ()
  in
  let bursty =
    Svc.Cluster.simulate ~nodes ~classes Svc.Cluster.Easy_backfill bursty_jobs
  in
  let easy = List.nth results 1 (* the Easy_backfill row above *) in
  (* occupancy Chrome trace of the 90%-capacity EASY run (nodes as
     pids, jobs as spans); a thunk so the multi-MB document is only
     built when icoe_report --occupancy asks for it *)
  Harness.record_artifact "svc-occupancy" (fun () ->
      Svc.Cluster.occupancy_chrome_json easy);
  Harness.section
    "Machine-as-a-service — multi-tenant job streams (Sec 4.7 at machine \
     scale)"
    (Fmt.str
       "%d tenant classes, Zipf s=%.1f popularity over harness ids; mean \
        demand %.0f node-s/job, capacity %.4f jobs/s\n\
        %s\
        saturation sweep (EASY backfill, 20000 s horizon): mean wait %.0f s \
        at 0.8x capacity, %.0f s at 1.0x, %.0f s at 1.3x (unbounded above \
        capacity, bounded below)\n\
        bursty arrivals (same offered load as the 90%% stream): mean wait \
        %.0f s vs %.0f s Poisson, p99 %.0f s vs %.0f s; p99/mean %.1fx vs \
        %.1fx (burstiness concentrates waiting in the tail)\n"
       (Array.length classes) zipf_s
       (Svc.Workload.mean_node_seconds ~classes ~zipf_s)
       cap (Table.render t)
       (let _, m = List.nth sweep 0 in m.Svc.Cluster.mean_wait)
       (let _, m = List.nth sweep 1 in m.Svc.Cluster.mean_wait)
       (let _, m = List.nth sweep 2 in m.Svc.Cluster.mean_wait)
       bursty.Svc.Cluster.mean_wait easy.Svc.Cluster.mean_wait
       bursty.Svc.Cluster.wait_p99 easy.Svc.Cluster.wait_p99
       (bursty.Svc.Cluster.wait_p99 /. bursty.Svc.Cluster.mean_wait)
       (easy.Svc.Cluster.wait_p99 /. easy.Svc.Cluster.mean_wait))

let harnesses =
  [
    Harness.make ~id:"svc"
      ~description:"Multi-tenant machine-as-a-service job streams"
      ~tags:[ "study"; "activity:svc" ]
      svc;
  ]
