(* The machine-as-a-service layer: generator determinism, exact capacity
   accounting, policy invariants on model-priced streams, and the
   saturation contract (bounded waits below capacity, unbounded above)
   that the svc harness reports. *)

open Icoe_svc

let machine = Catalog.machine ()
let classes = Catalog.default machine
let nodes = 256
let zipf_s = 1.1
let cap = Workload.capacity ~classes ~zipf_s ~nodes

let stream ~seed ~mult ~horizon =
  Workload.generate
    ~rng:(Icoe_util.Rng.create seed)
    ~classes ~zipf_s
    ~arrivals:(Workload.Poisson (mult *. cap))
    ~horizon ()

let test_catalog_names_are_harness_ids () =
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Workload.name ^ " registered") true
        (Option.is_some (Icoe.Harness_registry.find c.Workload.name)))
    classes;
  Array.iter
    (fun c ->
      Array.iter
        (fun n ->
          let s = c.Workload.service ~nodes:n in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%d finite positive" c.Workload.name n)
            true
            (Float.is_finite s && s > 0.0))
        c.Workload.sizes)
    classes

let test_capacity_sane () =
  Alcotest.(check bool) "capacity positive" true (cap > 0.0);
  Alcotest.(check bool) "capacity finite" true (Float.is_finite cap);
  let load = Workload.offered_load ~classes ~zipf_s ~rate:cap ~nodes in
  Alcotest.(check (float 1e-9)) "offered load at capacity is 1" 1.0 load;
  let w = Workload.zipf ~s:zipf_s (Array.length classes) in
  Array.iteri
    (fun i x -> if i > 0 then
        Alcotest.(check bool) "zipf decreasing" true (x < w.(i - 1)))
    w

let test_generator_deterministic () =
  let a = stream ~seed:5 ~mult:0.9 ~horizon:4000.0 in
  let b = stream ~seed:5 ~mult:0.9 ~horizon:4000.0 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Alcotest.(check bool) "non-empty" true (List.length a > 50);
  let rec sorted = function
    | a :: (b :: _ as tl) -> a.Workload.arrival <= b.Workload.arrival && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "arrival order" true (sorted a);
  List.iter
    (fun j ->
      Alcotest.(check bool) "within horizon" true
        (j.Workload.arrival >= 0.0 && j.Workload.arrival <= 4000.0))
    a

let test_bursty_generator () =
  let gen seed =
    Workload.generate
      ~rng:(Icoe_util.Rng.create seed)
      ~classes ~zipf_s
      ~arrivals:
        (Workload.Bursty
           {
             rate_hi = 2.5 *. cap;
             rate_lo = 0.3 *. cap;
             mean_hi_s = 400.0;
             mean_lo_s = 1200.0;
           })
      ~horizon:8000.0 ()
  in
  let a = gen 303 in
  Alcotest.(check bool) "bursty deterministic" true (a = gen 303);
  Alcotest.(check bool) "bursty non-empty" true (List.length a > 50)

let policies =
  [
    Cluster.Fcfs; Cluster.Easy_backfill; Cluster.Sjf_quota 0.5;
    Cluster.Partition 0.5;
  ]

let test_all_policies_conserve_jobs () =
  let jobs = stream ~seed:7 ~mult:0.8 ~horizon:6000.0 in
  let n = List.length jobs in
  List.iter
    (fun pol ->
      let m = Cluster.simulate ~check:true ~nodes ~classes pol jobs in
      let name = Cluster.policy_name pol in
      Alcotest.(check int) (name ^ " submitted") n m.Cluster.submitted;
      (* every catalog size fits the 256-node machine, so nothing drops *)
      Alcotest.(check int) (name ^ " completed") n m.Cluster.completed;
      Alcotest.(check int)
        (name ^ " turnaround per job") n
        (Array.length m.Cluster.turnarounds);
      Alcotest.(check bool)
        (name ^ " utilization in (0,1]")
        true
        (m.Cluster.utilization > 0.0 && m.Cluster.utilization <= 1.0 +. 1e-9);
      Alcotest.(check bool)
        (name ^ " p99 >= p50") true
        (m.Cluster.wait_p99 >= m.Cluster.wait_p50))
    policies

let test_simulate_deterministic () =
  let jobs = stream ~seed:11 ~mult:0.9 ~horizon:5000.0 in
  let m1 = Cluster.simulate ~nodes ~classes Cluster.Easy_backfill jobs in
  let m2 = Cluster.simulate ~nodes ~classes Cluster.Easy_backfill jobs in
  Alcotest.(check bool) "bit-identical metrics" true (m1 = m2)

let test_backfill_beats_fcfs () =
  let jobs = stream ~seed:7 ~mult:0.9 ~horizon:6000.0 in
  let fcfs = Cluster.simulate ~nodes ~classes Cluster.Fcfs jobs in
  let easy =
    Cluster.simulate ~check:true ~nodes ~classes Cluster.Easy_backfill jobs
  in
  Alcotest.(check bool) "backfill cuts mean wait" true
    (easy.Cluster.mean_wait <= fcfs.Cluster.mean_wait +. 1e-9);
  Alcotest.(check bool) "backfill no worse on makespan" true
    (easy.Cluster.makespan <= fcfs.Cluster.makespan +. 1e-9)

let test_saturation_contract () =
  (* the svc harness's acceptance story: below capacity the queue
     drains and waits stay bounded; above it they grow with the horizon *)
  let mean_wait mult =
    let jobs = stream ~seed:909 ~mult ~horizon:8000.0 in
    (Cluster.simulate ~nodes ~classes Cluster.Easy_backfill jobs)
      .Cluster.mean_wait
  in
  let under = mean_wait 0.7 and over = mean_wait 1.3 in
  Alcotest.(check bool) "overload waits dwarf underload waits" true
    (over > 3.0 *. under)

(* Whole-run digests on a small overloaded stream with a fat-tree
   topology, so placement penalties are exercised: every completed job's
   id, dispatch/finish bits and placed nodes, every (time, depth, free)
   sample, the bits of every wait, then the summary metrics. The
   expected values were recorded before the cluster moved onto the
   shared scheduling core; a decision that moves changes a digest. *)
let run_digest (m : Cluster.metrics) =
  let b = Buffer.create 4096 in
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun (r : Cluster.job_record) ->
      Printf.bprintf b "%d %Lx %Lx [%s]\n" r.Cluster.job.Workload.id
        (bits r.Cluster.dispatched) (bits r.Cluster.finished)
        (String.concat "," (List.map string_of_int r.Cluster.placed)))
    m.Cluster.log;
  List.iter
    (fun (t, depth, free) -> Printf.bprintf b "%Lx %d %d\n" (bits t) depth free)
    m.Cluster.samples;
  Array.iter (fun w -> Printf.bprintf b "%Lx\n" (bits w)) m.Cluster.waits;
  Printf.bprintf b "%d %Lx %Lx %Lx" m.Cluster.completed
    (bits m.Cluster.makespan) (bits m.Cluster.utilization)
    (bits m.Cluster.mean_wait);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_digests =
  [ "278eeae9fb6a87ebaf9852d5d8682a17"; "1c1a9fc3b29f54577e5e1109f7678958";
    "a63a2eded02846574467cb0ba1bf3e6a"; "419e1af57fbb7548beef95fc212e13c7" ]

let test_pinned_runs () =
  let topology =
    Hwsim.Topology.fat_tree ~name:"pin-fat-tree" ~leaf:Hwsim.Link.ib_edr
      ~spine:Hwsim.Link.ib_edr ~leaf_radix:16 ~pod_radix:4 ()
  in
  let jobs = stream ~seed:11 ~mult:1.1 ~horizon:1500.0 in
  List.iter2
    (fun pol expected ->
      let m = Cluster.simulate ~topology ~nodes ~classes pol jobs in
      Alcotest.(check string) (Cluster.policy_name pol) expected (run_digest m))
    policies pinned_digests

let prop_svc_conservation =
  QCheck.Test.make ~name:"svc policies complete every submitted job"
    ~count:10
    QCheck.(pair (int_range 1 5000) (int_range 1 4))
    (fun (seed, pol_idx) ->
      let jobs = stream ~seed ~mult:0.9 ~horizon:3000.0 in
      let pol = List.nth policies (pol_idx - 1) in
      let m = Cluster.simulate ~nodes ~classes pol jobs in
      m.Cluster.completed = List.length jobs
      && Float.is_finite m.Cluster.wait_p99)

let () =
  Alcotest.run "svc"
    [
      ( "workload",
        [
          Alcotest.test_case "catalog vs registry" `Quick
            test_catalog_names_are_harness_ids;
          Alcotest.test_case "capacity" `Quick test_capacity_sane;
          Alcotest.test_case "generator determinism" `Quick
            test_generator_deterministic;
          Alcotest.test_case "bursty generator" `Quick test_bursty_generator;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "conservation" `Quick
            test_all_policies_conserve_jobs;
          Alcotest.test_case "determinism" `Quick test_simulate_deterministic;
          Alcotest.test_case "backfill beats fcfs" `Quick
            test_backfill_beats_fcfs;
          Alcotest.test_case "saturation" `Quick test_saturation_contract;
          Alcotest.test_case "pinned runs" `Quick test_pinned_runs;
          QCheck_alcotest.to_alcotest prop_svc_conservation;
        ] );
    ]
