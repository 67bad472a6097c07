(* Tests for the hierarchical topology model: Link.make guards, the
   flat-topology bit-identity contract across hwsim/sparkle/dlearn/svc,
   level/placement monotonicity, and placement-aware dispatch. *)

open Hwsim

let check_float = Alcotest.(check (float 1e-12))

let raises_invalid name f =
  Alcotest.check_raises name
    (Invalid_argument
       (try
          ignore (f ());
          "no exception"
        with
       | Invalid_argument m -> m
       | _ -> "wrong exception"))
    (fun () -> ignore (f ()))

(* --- Link.make construction guard --- *)

let test_link_make_guards () =
  raises_invalid "negative latency" (fun () ->
      Link.make ~name:"bad" ~latency_s:(-1e-6) ~bw_gbs:25.0);
  raises_invalid "zero bandwidth" (fun () ->
      Link.make ~name:"bad" ~latency_s:1e-6 ~bw_gbs:0.0);
  raises_invalid "negative bandwidth" (fun () ->
      Link.make ~name:"bad" ~latency_s:1e-6 ~bw_gbs:(-25.0));
  raises_invalid "nan latency" (fun () ->
      Link.make ~name:"bad" ~latency_s:Float.nan ~bw_gbs:25.0);
  raises_invalid "infinite bandwidth" (fun () ->
      Link.make ~name:"bad" ~latency_s:1e-6 ~bw_gbs:Float.infinity);
  let l = Link.make ~name:"ok" ~latency_s:2e-6 ~bw_gbs:50.0 in
  check_float "latency kept" 2e-6 l.Link.latency_s;
  check_float "bandwidth kept" 50.0 l.Link.bw_gbs

let test_topology_make_guards () =
  raises_invalid "empty levels" (fun () -> Topology.make ~name:"bad" []);
  raises_invalid "radix < 2" (fun () ->
      Topology.make ~name:"bad"
        [ { Topology.name = "leaf"; link = Link.ib_edr; radix = 1;
            contention = 1.0 } ]);
  raises_invalid "contention < 1" (fun () ->
      Topology.make ~name:"bad"
        [ { Topology.name = "leaf"; link = Link.ib_edr; radix = 4;
            contention = 0.5 } ])

(* --- crossing semantics on the stock machines --- *)

let gh_topo = Node.grace_hopper.Node.topology (* leaf 32, pod 16, core *)

(* Topology.flat names the machine after its one link and keeps that
   link, uncontended, as its single level *)
let test_flat_topology_shape () =
  let l = Link.ib_dual_edr in
  let t = Topology.flat l in
  Alcotest.(check string) "name" ("flat/" ^ l.Link.name) t.Topology.name;
  Alcotest.(check int) "one level" 1 (Topology.depth t);
  Alcotest.(check bool) "is flat" true (Topology.is_flat t);
  Alcotest.(check bool) "leaf link is the link" true (Topology.leaf_link t = l);
  Alcotest.(check (float 0.0)) "uncontended" 1.0
    t.Topology.levels.(0).Topology.contention

let test_crossing_levels () =
  let check name exp got = Alcotest.(check int) name exp got in
  check "1 node crosses nothing" 0
    (Topology.crossing gh_topo ~nodes:1 Topology.Random_spread);
  check "leaf-sized gang stays in the leaf" 0
    (Topology.crossing gh_topo ~nodes:32 Topology.Contiguous);
  check "leaf+1 climbs to the pod" 1
    (Topology.crossing gh_topo ~nodes:33 Topology.Contiguous);
  check "pod-sized gang stays in the pod" 1
    (Topology.crossing gh_topo ~nodes:512 Topology.Contiguous);
  check "pod+1 pays the core" 2
    (Topology.crossing gh_topo ~nodes:513 Topology.Contiguous);
  check "random pays the top at any width" 2
    (Topology.crossing gh_topo ~nodes:2 Topology.Random_spread);
  check "reordered = contiguous + one spill level" 1
    (Topology.crossing gh_topo ~nodes:32 Topology.Rank_reordered);
  check "flat machines always cross their one level" 0
    (Topology.crossing Node.sierra.Node.topology ~nodes:4096
       Topology.Random_spread)

let test_crossing_of_ids () =
  let check name exp ids =
    Alcotest.(check int) name exp (Topology.crossing_of_ids gh_topo ids)
  in
  check "empty gang" 0 [];
  check "singleton gang" 0 [ 5 ];
  check "one leaf" 0 [ 0; 7; 31 ];
  check "two leaves, one pod" 1 [ 0; 32 ];
  check "two pods" 2 [ 0; 512 ]

(* --- the flat bit-identity contract, as qcheck properties --- *)

let arb_link_bytes =
  QCheck.(
    quad (float_range 0.0 1e-3) (float_range 0.1 1000.0)
      (float_range 0.0 1e9) (int_range 1 4096))

let arb_placement =
  QCheck.oneofl
    [ Topology.Contiguous; Topology.Rank_reordered; Topology.Random_spread ]

let prop_flat_prices_like_link =
  QCheck.Test.make ~count:200
    ~name:"flat topology = Link.transfer_time, bit-identically"
    (QCheck.pair arb_link_bytes arb_placement)
    (fun ((latency_s, bw_gbs, bytes, nodes), placement) ->
      let l = Link.make ~name:"l" ~latency_s ~bw_gbs in
      let topo = Topology.flat l in
      let direct = Link.transfer_time l ~bytes in
      Topology.path_time topo ~level:0 ~bytes = direct
      && Topology.gang_transfer_time topo ~nodes ~placement ~bytes = direct
      && Topology.allreduce_time topo ~nodes ~placement ~bytes
         = Topology.allreduce_rounds nodes *. direct
      && Topology.alltoall_gbs topo ~nodes = bw_gbs)

let prop_dlearn_flat_identity =
  QCheck.Test.make ~count:100
    ~name:"dlearn allreduce: flat EDR topology = legacy pricing"
    (QCheck.pair (QCheck.int_range 1 2_000_000) (QCheck.int_range 1 4096))
    (fun (params, learners) ->
      Dlearn.Distributed.allreduce_time
        ~topology:(Topology.flat Link.ib_dual_edr)
        ~params ~learners ()
      = Dlearn.Distributed.allreduce_time ~params ~learners ())

(* the old single-fabric Sparkle formulas, written out verbatim: a
   cluster on a flat topology must reproduce them float-for-float *)
let prop_sparkle_flat_identity =
  QCheck.Test.make ~count:100
    ~name:"sparkle collectives on flat topology = legacy formulas"
    (QCheck.triple QCheck.bool (QCheck.int_range 1 512)
       (QCheck.float_range 1.0 1e9))
    (fun (optimized, nodes, bytes) ->
      let config =
        if optimized then Sparkle.Cluster.optimized_config ~nodes ()
        else Sparkle.Cluster.default_config ~nodes ()
      in
      let t = Sparkle.Cluster.create config in
      let bw = Link.ib_dual_edr.Link.bw_gbs in
      let n = float_of_int nodes in
      let ser = Sparkle.Cluster.ser_rate t in
      let ovh = Sparkle.Cluster.task_overhead t in
      let rounds = Float.ceil (Float.log2 (float_of_int (max 2 nodes))) in
      let shuffle_legacy =
        let wire = bytes /. (n *. bw *. 1e9 *. 0.5) in
        let serde = 2.0 *. bytes /. (n *. ser) in
        let spill =
          if optimized then 0.0 else 2.0 *. bytes /. (n *. 500e6)
        in
        wire +. serde +. spill +. (ovh *. 2.0)
      in
      let aggregate_legacy =
        let link_time b = b /. (bw *. 1e9 *. 0.5) in
        if optimized (* tree_aggregate *) then
          rounds *. (link_time bytes +. (bytes /. ser) +. ovh)
        else (n *. (link_time bytes +. (bytes /. ser))) +. ovh
      in
      let broadcast_legacy =
        rounds *. ((bytes /. (bw *. 1e9 *. 0.5)) +. (bytes /. ser))
      in
      Sparkle.Cluster.shuffle_seconds t ~bytes = shuffle_legacy
      && Sparkle.Cluster.aggregate_seconds t ~bytes_per_node:bytes
         = aggregate_legacy
      && Sparkle.Cluster.broadcast_seconds t ~bytes = broadcast_legacy)

(* --- monotonicity properties --- *)

let arb_fat_tree =
  QCheck.(
    map
      (fun ((leaf_radix, pod_radix), contention) ->
        Topology.fat_tree ~name:"t" ~leaf:Link.ib_ndr ~spine:Link.ib_edr
          ~leaf_radix ~pod_radix ~core_contention:contention ())
      (pair (pair (int_range 2 64) (int_range 2 64)) (float_range 1.0 8.0)))

let prop_path_monotone_in_level =
  QCheck.Test.make ~count:200
    ~name:"path_time strictly monotone in crossed level"
    (QCheck.pair arb_fat_tree (QCheck.float_range 1.0 1e9))
    (fun (topo, bytes) ->
      let d = Topology.depth topo in
      let ok = ref true in
      for level = 0 to d - 2 do
        ok :=
          !ok
          && Topology.path_time topo ~level ~bytes
             < Topology.path_time topo ~level:(level + 1) ~bytes
      done;
      !ok)

let prop_placement_order =
  QCheck.Test.make ~count:200
    ~name:"contiguous <= rank-reordered <= random, per transfer and allreduce"
    (QCheck.triple arb_fat_tree (QCheck.int_range 1 8192)
       (QCheck.float_range 0.0 1e9))
    (fun (topo, nodes, bytes) ->
      let gang p = Topology.gang_transfer_time topo ~nodes ~placement:p ~bytes
      and ar p = Topology.allreduce_time topo ~nodes ~placement:p ~bytes in
      gang Topology.Contiguous <= gang Topology.Rank_reordered
      && gang Topology.Rank_reordered <= gang Topology.Random_spread
      && ar Topology.Contiguous <= ar Topology.Rank_reordered
      && ar Topology.Rank_reordered <= ar Topology.Random_spread)

(* --- placement-aware dispatch in the service simulation --- *)

let synthetic_classes =
  [|
    {
      Icoe_svc.Workload.name = "unit";
      sizes = [| 1; 2 |];
      service = (fun ~nodes:_ -> 10.0);
    };
  |]

let job ~id ~arrival ~nodes =
  { Icoe_svc.Workload.id; arrival; klass = 0; nodes }

let test_svc_flat_topology_identity () =
  (* a flat topology never penalizes, so metrics are bit-identical to a
     run without one *)
  let jobs =
    [ job ~id:0 ~arrival:0.0 ~nodes:1; job ~id:1 ~arrival:0.5 ~nodes:2;
      job ~id:2 ~arrival:1.0 ~nodes:2 ]
  in
  let run topology =
    Icoe_svc.Cluster.simulate ?topology ~nodes:4 ~classes:synthetic_classes
      Icoe_svc.Cluster.Fcfs jobs
  in
  let plain = run None
  and flat = run (Some (Topology.flat Link.ib_dual_edr)) in
  check_float "same makespan" plain.Icoe_svc.Cluster.makespan
    flat.Icoe_svc.Cluster.makespan;
  Alcotest.(check (array (float 0.0)))
    "same turnarounds" plain.Icoe_svc.Cluster.turnarounds
    flat.Icoe_svc.Cluster.turnarounds

let test_svc_fragmented_gang_pays () =
  (* 4-node machine as two 2-node leaves. Job 0 takes node 0; job 1
     then gets nodes 1 and 2 — a fragmented gang spanning both leaves,
     which must run slower than its 10 s contiguous pricing. *)
  let topo =
    Topology.make ~name:"2x2"
      [
        { Topology.name = "leaf"; link = Link.ib_edr; radix = 2;
          contention = 1.0 };
        { Topology.name = "spine"; link = Link.ib_edr; radix = 2;
          contention = 2.0 };
      ]
  in
  let jobs =
    [ job ~id:0 ~arrival:0.0 ~nodes:1; job ~id:1 ~arrival:0.0 ~nodes:2 ]
  in
  let m =
    Icoe_svc.Cluster.simulate ~topology:topo ~nodes:4
      ~classes:synthetic_classes Icoe_svc.Cluster.Fcfs jobs
  in
  let frag =
    List.find
      (fun (r : Icoe_svc.Cluster.job_record) ->
        r.Icoe_svc.Cluster.job.Icoe_svc.Workload.id = 1)
      m.Icoe_svc.Cluster.log
  in
  Alcotest.(check (list int))
    "gang spans both leaves" [ 1; 2 ] frag.Icoe_svc.Cluster.placed;
  Alcotest.(check bool)
    "fragmented gang runs longer than its contiguous pricing" true
    (frag.Icoe_svc.Cluster.finished -. frag.Icoe_svc.Cluster.dispatched
    > 10.0)

let () =
  Alcotest.run "topo"
    [
      ( "guards",
        [
          Alcotest.test_case "link make" `Quick test_link_make_guards;
          Alcotest.test_case "topology make" `Quick test_topology_make_guards;
          Alcotest.test_case "flat topology shape" `Quick test_flat_topology_shape;
        ] );
      ( "crossing",
        [
          Alcotest.test_case "levels" `Quick test_crossing_levels;
          Alcotest.test_case "concrete ids" `Quick test_crossing_of_ids;
        ] );
      ( "bit-identity",
        [
          QCheck_alcotest.to_alcotest prop_flat_prices_like_link;
          QCheck_alcotest.to_alcotest prop_dlearn_flat_identity;
          QCheck_alcotest.to_alcotest prop_sparkle_flat_identity;
        ] );
      ( "monotonicity",
        [
          QCheck_alcotest.to_alcotest prop_path_monotone_in_level;
          QCheck_alcotest.to_alcotest prop_placement_order;
        ] );
      ( "svc placement",
        [
          Alcotest.test_case "flat identity" `Quick
            test_svc_flat_topology_identity;
          Alcotest.test_case "fragmented gang pays" `Quick
            test_svc_fragmented_gang_pays;
        ] );
    ]
