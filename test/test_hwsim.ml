(* Tests for the hardware model: roofline pricing, links, clocks, nodes. *)

open Hwsim

let check_float = Alcotest.(check (float 1e-12))

let test_roofline_bandwidth_bound () =
  (* stream-like kernel: 1 flop per 24 bytes => bandwidth bound everywhere *)
  let k = Kernel.make ~name:"stream" ~flops:1e9 ~bytes:24e9 () in
  Alcotest.(check bool) "bw bound on V100" true
    (Roofline.binding Device.v100 k = Roofline.Bandwidth_bound);
  let eff = Roofline.eff ~compute:1.0 ~bandwidth:1.0 () in
  let t = Roofline.time ~eff Device.v100 k in
  let expected = Device.v100.Device.launch_overhead_s +. (24e9 /. (900.0 *. 1e9)) in
  check_float "time = launch + bytes/bw" expected t

let test_roofline_compute_bound () =
  let k = Kernel.make ~name:"dgemm" ~flops:1e12 ~bytes:1e6 () in
  Alcotest.(check bool) "compute bound" true
    (Roofline.binding Device.v100 k = Roofline.Compute_bound)

let test_roofline_lanes_scale () =
  let k = Kernel.make ~name:"k" ~flops:1e9 ~bytes:0.0 ~launches:0 () in
  let eff = Roofline.eff ~compute:1.0 ~bandwidth:1.0 () in
  let full = Roofline.time ~eff Device.power9 k in
  let half = Roofline.time ~eff ~lanes_used:11 Device.power9 k in
  Alcotest.(check bool) "half lanes = 2x time" true
    (Float.abs ((half /. full) -. 2.0) < 0.01)

let test_gpu_faster_than_cpu_on_stream () =
  let k = Kernel.make ~name:"stream" ~flops:1e9 ~bytes:64e9 () in
  let tg = Roofline.time Device.v100 k and tc = Roofline.time Device.power9 k in
  Alcotest.(check bool) "V100 beats P9 on bandwidth" true (tg < tc)

let test_link_transfer_monotone () =
  let t1 = Link.transfer_time Link.nvlink2 ~bytes:1e3 in
  let t2 = Link.transfer_time Link.nvlink2 ~bytes:1e6 in
  Alcotest.(check bool) "more bytes, more time" true (t2 > t1)

let test_gpudirect_crossover () =
  (* Sec 4.11: for small messages GPUDirect wins (low latency); for a few
     KB or more cudaMemcpy wins (higher bandwidth). *)
  let small = 256.0 and large = 65536.0 in
  let gd_small = Link.transfer_time Link.gpudirect ~bytes:small in
  let cm_small = Link.transfer_time Link.cuda_memcpy ~bytes:small in
  let gd_large = Link.transfer_time Link.gpudirect ~bytes:large in
  let cm_large = Link.transfer_time Link.cuda_memcpy ~bytes:large in
  Alcotest.(check bool) "GPUDirect wins small" true (gd_small < cm_small);
  Alcotest.(check bool) "cudaMemcpy wins large" true (cm_large < gd_large)

let test_unified_memory_pages () =
  (* 1 byte still moves a whole 64 KiB page *)
  let t1 = Link.unified_memory_transfer ~link:Link.nvlink2 ~bytes:1.0 in
  let t2 = Link.unified_memory_transfer ~link:Link.nvlink2 ~bytes:65536.0 in
  check_float "sub-page rounds up" t2 t1

let test_zero_byte_transfers () =
  (* no message, no latency: an empty transfer is free on every link *)
  List.iter
    (fun l -> check_float (l.Link.name ^ " empty") 0.0 (Link.transfer_time l ~bytes:0.0))
    [ Link.pcie3; Link.nvlink2; Link.gpudirect; Link.ib_dual_edr ];
  check_float "UM empty" 0.0
    (Link.unified_memory_transfer ~link:Link.nvlink2 ~bytes:0.0);
  (* ... and a 1-byte transfer still pays the setup latency *)
  Alcotest.(check bool) "1 byte >= latency" true
    (Link.transfer_time Link.nvlink2 ~bytes:1.0 >= Link.nvlink2.Link.latency_s)

let test_unified_memory_no_link_latency () =
  (* pages pay the fault-service cost, not the link setup latency: the
     UM time must depend only on page count x (fault cost + wire time),
     so doubling the pages exactly doubles the time *)
  let one = Link.unified_memory_transfer ~link:Link.nvlink2 ~bytes:65536.0 in
  let two = Link.unified_memory_transfer ~link:Link.nvlink2 ~bytes:131072.0 in
  check_float "no per-transfer constant" (2.0 *. one) two

let test_clock_phases () =
  let c = Clock.create () in
  Clock.tick c ~phase:"a" 1.0;
  Clock.tick c ~phase:"b" 2.0;
  Clock.tick c ~phase:"a" 0.5;
  check_float "total" 3.5 (Clock.total c);
  check_float "phase a" 1.5 (Clock.phase c "a");
  check_float "phase b" 2.0 (Clock.phase c "b");
  Alcotest.(check int) "breakdown order" 2 (List.length (Clock.breakdown c));
  Clock.reset c;
  check_float "reset" 0.0 (Clock.total c)

let test_node_peaks () =
  let open Node in
  let w = witherspoon in
  Alcotest.(check bool) "witherspoon GPU-dominant" true
    (gpu_peak_gflops w > 10.0 *. cpu_peak_gflops w);
  Alcotest.(check bool) "cori has no GPU" true (gpu_peak_gflops cori_ii = 0.0);
  (* Sierra node ~ 31 TF/s DP within a factor *)
  Alcotest.(check bool) "sierra node peak sane" true
    (node_peak_gflops w > 25_000.0 && node_peak_gflops w < 40_000.0)

let test_kernel_algebra () =
  let a = Kernel.make ~name:"a" ~flops:1.0 ~bytes:2.0 () in
  let b = Kernel.make ~name:"b" ~flops:3.0 ~bytes:4.0 ~launches:2 () in
  let c = Kernel.add a b in
  check_float "flops add" 4.0 c.Kernel.flops;
  check_float "bytes add" 6.0 c.Kernel.bytes;
  Alcotest.(check int) "launches add" 3 c.Kernel.launches;
  let s = Kernel.scale 2.0 a in
  check_float "scale flops" 2.0 s.Kernel.flops;
  check_float "intensity invariant under scale" (Kernel.intensity a)
    (Kernel.intensity s)

(* --- nest counters (Sec 4.10.6) --- *)

let test_counters_bandwidth () =
  let c = Hwsim.Counters.create Hwsim.Device.power9 in
  (* 1 GB moved over 0.02 s = 50 GB/s on a 120 GB/s device *)
  Hwsim.Counters.sample c ~time:0.0 ~bytes:0.0;
  Hwsim.Counters.sample c ~time:0.01 ~bytes:0.5e9;
  Hwsim.Counters.sample c ~time:0.02 ~bytes:1.0e9;
  Alcotest.(check (float 1e-9)) "achieved" 50.0 (Hwsim.Counters.achieved_gbs c);
  Alcotest.(check bool) "not yet bandwidth bound" false
    (Hwsim.Counters.bandwidth_bound c);
  Hwsim.Counters.sample c ~time:0.025 ~bytes:1.6e9;
  Alcotest.(check int) "series intervals" 3 (List.length (Hwsim.Counters.series c))

let test_counters_detect_stream () =
  (* a STREAM-like phase must be flagged bandwidth-bound *)
  let c = Hwsim.Counters.create Hwsim.Device.power9 in
  Hwsim.Counters.sample c ~time:0.0 ~bytes:0.0;
  Hwsim.Counters.sample c ~time:0.1 ~bytes:(0.8 *. 120.0e9 *. 0.1);
  Alcotest.(check bool) "bandwidth bound" true (Hwsim.Counters.bandwidth_bound c)

let test_counters_monotonicity_guard () =
  let c = Hwsim.Counters.create Hwsim.Device.power9 in
  Hwsim.Counters.sample c ~time:1.0 ~bytes:100.0;
  Alcotest.(check bool) "rejects rewinding counter" true
    (match Hwsim.Counters.sample c ~time:0.5 ~bytes:200.0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- stream scheduler (comm/compute overlap) --- *)

(* A(gpu, 3) and B(nic, 2) start together; C(gpu, 1) needs B but also
   waits for A (same stream). Critical path: max(3, 2) + 1 = 4. *)
let fixed_dag sched =
  ignore (Sched.work sched ~stream:"gpu" ~phase:"a" 3.0);
  let b = Sched.work sched ~stream:"nic" ~phase:"b" 2.0 in
  ignore (Sched.work sched ~stream:"gpu" ~deps:[ b ] ~phase:"c" 1.0)

let test_sched_critical_path () =
  let sched = Sched.create ~overlap:true () in
  fixed_dag sched;
  check_float "overlap = critical path" 4.0 (Sched.run sched);
  check_float "serial sum" 6.0 (Sched.serial_sum sched);
  check_float "efficiency" (4.0 /. 6.0) (Sched.overlap_efficiency sched);
  check_float "memoized" 4.0 (Sched.run sched)

let test_sched_serial_mode () =
  let sched = Sched.create ~overlap:false () in
  fixed_dag sched;
  check_float "serial mode = serial sum" 6.0 (Sched.run sched);
  check_float "efficiency 1.0" 1.0 (Sched.overlap_efficiency sched)

let test_sched_stream_order () =
  (* no explicit deps: same-stream items still serialize *)
  let sched = Sched.create ~overlap:true () in
  ignore (Sched.work sched ~stream:"gpu" ~phase:"a" 1.0);
  ignore (Sched.work sched ~stream:"gpu" ~phase:"b" 1.0);
  check_float "in-order stream" 2.0 (Sched.run sched)

let test_sched_guards () =
  let sched = Sched.create ~overlap:true () in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Sched: item duration must be finite and nonnegative")
    (fun () -> ignore (Sched.work sched ~stream:"s" ~phase:"p" (-1.0)));
  ignore (Sched.work sched ~stream:"s" ~phase:"p" 1.0);
  ignore (Sched.run sched);
  Alcotest.check_raises "enqueue after run"
    (Invalid_argument "Sched: cannot enqueue after run") (fun () ->
      ignore (Sched.work sched ~stream:"s" ~phase:"p" 1.0))

let test_sched_empty () =
  let sched = Sched.create ~overlap:true () in
  check_float "empty makespan" 0.0 (Sched.run sched);
  check_float "empty efficiency" 1.0 (Sched.overlap_efficiency sched)

let test_sched_trace_overlap_charging () =
  (* overlapped charging: clock total advances by the makespan, while
     the per-phase breakdown keeps full busy seconds — their sum exceeds
     the total by exactly the hidden time *)
  let c = Clock.create () in
  let tr = Trace.create ~root:"t" c in
  let sched = Sched.create ~overlap:true ~trace:tr () in
  fixed_dag sched;
  let makespan = Sched.run sched in
  check_float "clock total = makespan" makespan (Clock.total c);
  check_float "phase a busy" 3.0 (Clock.phase c "a");
  check_float "phase b busy" 2.0 (Clock.phase c "b");
  check_float "phase c busy" 1.0 (Clock.phase c "c");
  let breakdown_sum =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Clock.breakdown c)
  in
  check_float "hidden time = serial - makespan"
    (Sched.serial_sum sched -. makespan)
    (breakdown_sum -. Clock.total c)

let test_sched_serial_charging_matches_charge () =
  (* the ICOE_OVERLAP=0 fallback must charge exactly like Trace.charge *)
  let c1 = Clock.create () in
  let t1 = Trace.create ~root:"t" c1 in
  let sched = Sched.create ~overlap:false ~trace:t1 () in
  ignore (Sched.work sched ~stream:"gpu" ~device:"gpu" ~phase:"a" 1.5);
  ignore (Sched.work sched ~stream:"nic" ~device:"nic" ~phase:"b" 0.25);
  ignore (Sched.run sched);
  let c2 = Clock.create () in
  let t2 = Trace.create ~root:"t" c2 in
  Trace.charge t2 ~device:"gpu" ~phase:"a" 1.5;
  Trace.charge t2 ~device:"nic" ~phase:"b" 0.25;
  check_float "totals equal" (Clock.total c2) (Clock.total c1);
  check_float "phase a equal" (Clock.phase c2 "a") (Clock.phase c1 "a");
  check_float "phase b equal" (Clock.phase c2 "b") (Clock.phase c1 "b");
  Alcotest.(check int)
    "span counts equal" (Trace.span_count t2) (Trace.span_count t1)

let test_sched_kernel_and_transfer_pricing () =
  (* scheduler items are priced by the same cost model as serialized
     charging *)
  let k = Kernel.make ~name:"k" ~flops:1e9 ~bytes:24e9 () in
  let sched = Sched.create ~overlap:true () in
  let ki = Sched.kernel sched ~stream:"gpu" Device.v100 k in
  let ti = Sched.transfer sched ~stream:"nic" Link.nvlink2 ~bytes:1e6 in
  check_float "kernel priced by roofline" (Roofline.time Device.v100 k)
    (Sched.duration ki);
  check_float "transfer priced by link"
    (Link.transfer_time Link.nvlink2 ~bytes:1e6)
    (Sched.duration ti)

let test_binding_delegates_to_time_and_bound () =
  (* regression: binding used to re-derive the roofs itself and did not
     accept [lanes_used], so it could disagree with the roof that
     actually priced the time. It must equal [snd time_and_bound] under
     every efficiency/lane scaling. *)
  let k = Kernel.make ~name:"k" ~flops:1e9 ~bytes:1e9 () in
  List.iter
    (fun (eff, lanes_used) ->
      Alcotest.(check bool)
        "binding = snd time_and_bound" true
        (Roofline.binding ?eff ?lanes_used Device.power9 k
        = snd (Roofline.time_and_bound ?eff ?lanes_used Device.power9 k)))
    [
      (None, None);
      (Some (Roofline.eff ~compute:0.05 ~bandwidth:1.0 ()), None);
      (None, Some 1);
      (Some (Roofline.eff ~compute:1.0 ~bandwidth:0.05 ()), Some 3);
    ];
  (* the efficiency surface can flip the roof; both views agree on it *)
  Alcotest.(check bool)
    "bandwidth bound at default eff" true
    (Roofline.binding Device.power9 k = Roofline.Bandwidth_bound);
  Alcotest.(check bool)
    "low compute eff flips to compute bound" true
    (Roofline.binding
       ~eff:(Roofline.eff ~compute:0.05 ~bandwidth:1.0 ())
       Device.power9 k
    = Roofline.Compute_bound)

(* Random DAGs: each item gets a stream, a duration, and possibly a
   dependency on an earlier item — exactly the shapes engines build. *)
let sched_case_gen =
  QCheck.(
    small_list (triple (int_bound 2) (float_range 0.0 10.0) small_nat))

let build_sched ~overlap case =
  let sched = Sched.create ~overlap () in
  let items = Array.make (List.length case) None in
  List.iteri
    (fun j (s, d, dep) ->
      let stream = Printf.sprintf "s%d" s in
      let deps =
        if j > 0 && dep mod 2 = 0 then
          match items.(dep mod j) with Some it -> [ it ] | None -> []
        else []
      in
      items.(j) <- Some (Sched.work sched ~stream ~deps ~phase:stream d))
    case;
  sched

let prop_sched_makespan_bounds =
  QCheck.Test.make ~name:"overlap: busy max <= makespan <= serial sum"
    ~count:300 sched_case_gen (fun case ->
      let sched = build_sched ~overlap:true case in
      let makespan = Sched.run sched in
      let serial = Sched.serial_sum sched in
      let busy_max =
        List.fold_left
          (fun acc (_, b) -> Float.max acc b)
          0.0 (Sched.stream_busy sched)
      in
      makespan <= serial +. 1e-9 && makespan >= busy_max -. 1e-9)

let prop_sched_critical_path =
  (* independent recomputation of every finish time: an item starts at
     the max of its dependencies' and stream predecessor's finishes *)
  QCheck.Test.make ~name:"overlap: makespan = recomputed critical path"
    ~count:300 sched_case_gen (fun case ->
      let sched = build_sched ~overlap:true case in
      let makespan = Sched.run sched in
      let expected =
        let stream_last = Hashtbl.create 8 in
        List.fold_left
          (fun acc it ->
            let ready =
              Option.value
                (Hashtbl.find_opt stream_last (Sched.stream_of it))
                ~default:0.0
            in
            let start =
              List.fold_left
                (fun acc d -> Float.max acc (Sched.finish_time d))
                ready (Sched.deps_of it)
            in
            let finish = start +. Sched.duration it in
            Hashtbl.replace stream_last (Sched.stream_of it) finish;
            Float.max acc finish)
          0.0 (Sched.items sched)
      in
      makespan = expected)

let prop_sched_conservation =
  QCheck.Test.make
    ~name:"per-stream busy seconds conserved across scheduling modes"
    ~count:300 sched_case_gen (fun case ->
      let ov = build_sched ~overlap:true case in
      let ser = build_sched ~overlap:false case in
      ignore (Sched.run ov);
      ignore (Sched.run ser);
      Sched.stream_busy ov = Sched.stream_busy ser
      && Sched.run ser = Sched.serial_sum ov)

let prop_sched_determinism =
  QCheck.Test.make ~name:"identical rebuild gives identical makespan"
    ~count:200 sched_case_gen (fun case ->
      let a = build_sched ~overlap:true case in
      let b = build_sched ~overlap:true case in
      Sched.run a = Sched.run b)

let prop_roofline_time_positive =
  QCheck.Test.make ~name:"roofline time positive and monotone in work"
    ~count:200
    QCheck.(pair (float_range 1.0 1e12) (float_range 1.0 1e12))
    (fun (f, b) ->
      let k1 = Kernel.make ~name:"k" ~flops:f ~bytes:b () in
      let k2 = Kernel.make ~name:"k" ~flops:(2.0 *. f) ~bytes:(2.0 *. b) () in
      let t1 = Roofline.time Device.v100 k1 in
      let t2 = Roofline.time Device.v100 k2 in
      t1 > 0.0 && t2 >= t1)

let () =
  Alcotest.run "hwsim"
    [
      ( "roofline",
        [
          Alcotest.test_case "bandwidth bound" `Quick test_roofline_bandwidth_bound;
          Alcotest.test_case "compute bound" `Quick test_roofline_compute_bound;
          Alcotest.test_case "lane scaling" `Quick test_roofline_lanes_scale;
          Alcotest.test_case "gpu beats cpu on stream" `Quick
            test_gpu_faster_than_cpu_on_stream;
          QCheck_alcotest.to_alcotest prop_roofline_time_positive;
        ] );
      ( "links",
        [
          Alcotest.test_case "monotone" `Quick test_link_transfer_monotone;
          Alcotest.test_case "gpudirect crossover" `Quick test_gpudirect_crossover;
          Alcotest.test_case "unified memory pages" `Quick test_unified_memory_pages;
          Alcotest.test_case "zero-byte transfers" `Quick test_zero_byte_transfers;
          Alcotest.test_case "UM latency not double-charged" `Quick
            test_unified_memory_no_link_latency;
        ] );
      ("clock", [ Alcotest.test_case "phases" `Quick test_clock_phases ]);
      ( "sched",
        [
          Alcotest.test_case "critical path" `Quick test_sched_critical_path;
          Alcotest.test_case "serial mode" `Quick test_sched_serial_mode;
          Alcotest.test_case "stream order" `Quick test_sched_stream_order;
          Alcotest.test_case "guards" `Quick test_sched_guards;
          Alcotest.test_case "empty schedule" `Quick test_sched_empty;
          Alcotest.test_case "overlapped trace charging" `Quick
            test_sched_trace_overlap_charging;
          Alcotest.test_case "serial fallback matches Trace.charge" `Quick
            test_sched_serial_charging_matches_charge;
          Alcotest.test_case "cost-model pricing" `Quick
            test_sched_kernel_and_transfer_pricing;
          Alcotest.test_case "binding delegates (lanes_used)" `Quick
            test_binding_delegates_to_time_and_bound;
          QCheck_alcotest.to_alcotest prop_sched_makespan_bounds;
          QCheck_alcotest.to_alcotest prop_sched_critical_path;
          QCheck_alcotest.to_alcotest prop_sched_conservation;
          QCheck_alcotest.to_alcotest prop_sched_determinism;
        ] );
      ("node", [ Alcotest.test_case "peaks" `Quick test_node_peaks ]);
      ("kernel", [ Alcotest.test_case "algebra" `Quick test_kernel_algebra ]);
      ( "counters",
        [
          Alcotest.test_case "bandwidth" `Quick test_counters_bandwidth;
          Alcotest.test_case "stream detection" `Quick test_counters_detect_stream;
          Alcotest.test_case "monotone guard" `Quick test_counters_monotonicity_guard;
        ] );
    ]
