(* Tests for the span tracer: nesting, clock agreement, rollups, counter
   annotation, and the Chrome trace-event exporter. *)

open Hwsim

let check_float = Alcotest.(check (float 1e-12))

(* --- span nesting --- *)

let test_nesting () =
  let tr = Trace.create ~root:"exp" (Clock.create ()) in
  Trace.push tr "phase1";
  Trace.charge tr ~phase:"k1" 1.0;
  Trace.charge tr ~phase:"k2" 2.0;
  Trace.pop tr;
  Trace.with_span tr ~device:"V100" "phase2" (fun () ->
      Trace.charge tr ~device:"V100" ~phase:"k3" 3.0);
  let root = Trace.root tr in
  Alcotest.(check int) "two phases under root" 2 (List.length root.Trace.children);
  Alcotest.(check int) "five spans total" 5 (Trace.span_count tr);
  (* children are stored newest first *)
  let phase2 = List.hd root.Trace.children in
  Alcotest.(check string) "second phase" "phase2" phase2.Trace.name;
  Alcotest.(check int) "one kernel inside" 1 (List.length phase2.Trace.children);
  check_float "phase2 covers its charge" 3.0
    (phase2.Trace.stop -. phase2.Trace.start);
  let phase1 = List.nth root.Trace.children 1 in
  check_float "phase1 starts at 0" 0.0 phase1.Trace.start;
  check_float "phase1 covers both charges" 3.0 phase1.Trace.stop

let test_with_span_closes_on_exception () =
  let tr = Trace.create (Clock.create ()) in
  (try Trace.with_span tr "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  (* the span must have been closed: a new push goes under the root *)
  Trace.push tr "after";
  Trace.pop tr;
  Alcotest.(check int) "both spans under root" 2
    (List.length (Trace.root tr).Trace.children)

let test_pop_root_rejected () =
  let tr = Trace.create (Clock.create ()) in
  Alcotest.(check bool) "pop without push rejected" true
    (match Trace.pop tr with
    | () -> false
    | exception Invalid_argument _ -> true)

(* --- clock agreement --- *)

let test_rollup_matches_clock () =
  let clock = Clock.create () in
  let tr = Trace.create clock in
  Trace.with_span tr "outer" (fun () ->
      Trace.charge tr ~phase:"compute" 1.5;
      Trace.charge tr ~phase:"shuffle" 0.5;
      Trace.with_span tr "inner" (fun () -> Trace.charge tr ~phase:"compute" 2.0));
  check_float "trace total = clock total" (Clock.total clock) (Trace.total tr);
  List.iter
    (fun r ->
      check_float ("phase " ^ r.Trace.key) (Clock.phase clock r.Trace.key)
        r.Trace.seconds)
    (Trace.by_phase tr);
  Alcotest.(check int) "phases found" 2 (List.length (Trace.by_phase tr));
  (* leaf-only aggregation: phase sums add up to the clock total, i.e.
     nested spans never double-count *)
  let s = List.fold_left (fun a r -> a +. r.Trace.seconds) 0.0 (Trace.by_phase tr) in
  check_float "leaves sum to total" (Clock.total clock) s

let test_fig2_cluster_trace_matches_breakdown () =
  (* the real instrumented path: every Sparkle.Cluster charge must land in
     the trace, phase for phase, matching the clock the harness prints *)
  let cluster = Lda.Fig2.run ~optimized:false Lda.Fig2.wikipedia in
  let tr = Sparkle.Cluster.trace cluster in
  let breakdown = Sparkle.Cluster.breakdown cluster in
  let rollup = Trace.by_phase tr in
  Alcotest.(check int) "same phase count" (List.length breakdown)
    (List.length rollup);
  List.iter
    (fun (phase, secs) ->
      let r = List.find (fun r -> r.Trace.key = phase) rollup in
      Alcotest.(check (float 1e-9)) ("phase " ^ phase) secs r.Trace.seconds)
    breakdown;
  Alcotest.(check (float 1e-9)) "total" (Sparkle.Cluster.elapsed cluster)
    (Trace.total tr)

(* --- kernel charges and rollups --- *)

let test_charge_kernel_attributes () =
  let tr = Trace.create (Clock.create ()) in
  let k = Kernel.make ~name:"stream" ~flops:1e9 ~bytes:24e9 () in
  let dt = Trace.charge_kernel tr Device.v100 k in
  check_float "priced like Roofline.time" (Roofline.time Device.v100 k) dt;
  let sp = List.hd (Trace.root tr).Trace.children in
  Alcotest.(check bool) "bandwidth bound recorded" true
    (sp.Trace.bound = Some Roofline.Bandwidth_bound);
  check_float "flops attribute" 1e9 sp.Trace.flops;
  Alcotest.(check (option string)) "device attribute" (Some "V100")
    sp.Trace.device;
  let dev = Trace.by_device tr in
  Alcotest.(check int) "one device" 1 (List.length dev);
  Alcotest.(check string) "keyed by device name" "V100"
    (List.hd dev).Trace.key

let test_top_spans_sorted () =
  let tr = Trace.create (Clock.create ()) in
  Trace.charge tr ~phase:"short" 1.0;
  Trace.charge tr ~phase:"long" 5.0;
  Trace.charge tr ~phase:"mid" 3.0;
  let top = Trace.top_spans ~n:2 tr in
  Alcotest.(check (list string)) "longest first" [ "long"; "mid" ]
    (List.map (fun s -> s.Trace.name) top)

let test_annotate_counters () =
  let tr = Trace.create (Clock.create ()) in
  let c = Counters.create Device.power9 in
  Counters.sample c ~time:0.0 ~bytes:0.0;
  Counters.sample c ~time:0.1 ~bytes:(0.8 *. 120.0e9 *. 0.1);
  Trace.with_span tr "stream" (fun () ->
      Trace.charge tr ~phase:"triad" 0.1;
      Trace.annotate_counters tr c);
  let sp = List.hd (Trace.root tr).Trace.children in
  match sp.Trace.bw_util with
  | Some u -> Alcotest.(check (float 1e-9)) "utilization recorded" 0.8 u
  | None -> Alcotest.fail "bw_util not recorded"

(* --- rollup tables --- *)

let test_tables_render () =
  let tr = Trace.create (Clock.create ()) in
  ignore (Trace.charge_kernel tr Device.v100
            (Kernel.make ~name:"k" ~flops:1e12 ~bytes:1e6 ()));
  let dev = Icoe_util.Table.render (Trace.device_table tr) in
  let ph = Icoe_util.Table.render (Trace.phase_table tr) in
  let sp = Icoe_util.Table.render (Trace.span_table tr) in
  Alcotest.(check bool) "device table mentions V100" true
    (Astring.String.is_infix ~affix:"V100" dev);
  Alcotest.(check bool) "phase table mentions kernel" true
    (Astring.String.is_infix ~affix:"k" ph);
  Alcotest.(check bool) "span table mentions bound" true
    (Astring.String.is_infix ~affix:"compute" sp)

(* --- Chrome trace-event export --- *)

(* Structural JSON scan: brackets/braces balanced outside string
   literals, and the document is a non-empty array. *)
let json_balanced s =
  let obj = ref 0 and arr = ref 0 and in_str = ref false and esc = ref false in
  let ok = ref true in
  String.iter
    (fun c ->
      if !in_str then
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' -> incr obj
        | '}' -> decr obj; if !obj < 0 then ok := false
        | '[' -> incr arr
        | ']' -> decr arr; if !arr < 0 then ok := false
        | _ -> ())
    s;
  !ok && !obj = 0 && !arr = 0 && not !in_str

let test_chrome_export () =
  let tr = Trace.create ~root:"t" (Clock.create ()) in
  Trace.with_span tr ~device:"V100" "solve \"quoted\"" (fun () ->
      ignore (Trace.charge_kernel tr Device.v100
                (Kernel.make ~name:"spmv" ~flops:1e9 ~bytes:8e9 ())));
  let json = Trace.to_chrome_json tr in
  Alcotest.(check bool) "non-empty" true (String.length json > 2);
  Alcotest.(check bool) "balanced" true (json_balanced json);
  Alcotest.(check bool) "array document" true
    (json.[0] = '[' && Astring.String.is_suffix ~affix:"]\n" json);
  Alcotest.(check bool) "has complete events" true
    (Astring.String.is_infix ~affix:{|"ph":"X"|} json);
  Alcotest.(check bool) "has process metadata" true
    (Astring.String.is_infix ~affix:{|"process_name"|} json);
  Alcotest.(check bool) "quotes escaped" true
    (Astring.String.is_infix ~affix:{|solve \"quoted\"|} json);
  Alcotest.(check bool) "kernel args exported" true
    (Astring.String.is_infix ~affix:{|"bound":"bandwidth"|} json);
  Alcotest.(check bool) "no bare nan/inf" true
    (not (Astring.String.is_infix ~affix:"nan" json)
    && not (Astring.String.is_infix ~affix:"inf" json))

let test_chrome_export_many () =
  let mk name dt =
    let tr = Trace.create ~root:name (Clock.create ()) in
    Trace.charge tr ~phase:"work" dt;
    (name, tr)
  in
  let json = Trace.chrome_json_of_many [ mk "a" 1.0; mk "b" 2.0 ] in
  Alcotest.(check bool) "balanced" true (json_balanced json);
  Alcotest.(check bool) "two processes" true
    (Astring.String.is_infix ~affix:{|"pid":0|} json
    && Astring.String.is_infix ~affix:{|"pid":1|} json)

let () =
  Alcotest.run "trace"
    [
      ( "nesting",
        [
          Alcotest.test_case "push/pop tree" `Quick test_nesting;
          Alcotest.test_case "with_span exception" `Quick
            test_with_span_closes_on_exception;
          Alcotest.test_case "pop root rejected" `Quick test_pop_root_rejected;
        ] );
      ( "clock",
        [
          Alcotest.test_case "rollup = clock" `Quick test_rollup_matches_clock;
          Alcotest.test_case "fig2 cluster trace" `Quick
            test_fig2_cluster_trace_matches_breakdown;
        ] );
      ( "rollups",
        [
          Alcotest.test_case "kernel attributes" `Quick
            test_charge_kernel_attributes;
          Alcotest.test_case "top spans" `Quick test_top_spans_sorted;
          Alcotest.test_case "counters annotation" `Quick test_annotate_counters;
          Alcotest.test_case "tables render" `Quick test_tables_render;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export" `Quick test_chrome_export;
          Alcotest.test_case "export many" `Quick test_chrome_export_many;
        ] );
    ]
