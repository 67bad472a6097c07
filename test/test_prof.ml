(* PR 7 observability layer: Icoe_obs.Prof critical-path blame,
   Icoe_obs.Events flight recorder, the Icoe_util.Json reader, and the
   Icoe_obs.Bench_diff regression gate. *)

module Prof = Icoe_obs.Prof
module Events = Icoe_obs.Events
module Json = Icoe_util.Json
module Bench_diff = Icoe_obs.Bench_diff

let close ?(eps = 1e-9) msg a b =
  if Float.abs (a -. b) > eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
  then Alcotest.failf "%s: %.17g vs %.17g" msg a b

(* --- Prof on the three production overlap models --- *)

let sw4_model () =
  Sw4.Scenario.production_step_model ~overlap:true Hwsim.Node.sierra ~nodes:256
    ~grid_points:26.0e9

let test_sw4_blame_sums_to_makespan () =
  let m = sw4_model () in
  let a = Prof.analyze ~overlap:true m.Sw4.Scenario.dag in
  close "makespan = overlapped_s" a.Prof.makespan m.Sw4.Scenario.overlapped_s;
  close "phase blame sums to makespan" (Prof.blame_total a) a.Prof.makespan;
  let stream_total =
    List.fold_left (fun acc (b : Prof.blame) -> acc +. b.Prof.seconds) 0.0
      a.Prof.stream_blame
  in
  close "stream blame sums to makespan" stream_total a.Prof.makespan

let test_sw4_blames_stencil_not_halo () =
  (* the paper's narrative: once overlap is on, interior stencil compute
     (not the halo exchange) dominates the step *)
  let m = sw4_model () in
  let a = Prof.analyze ~overlap:true m.Sw4.Scenario.dag in
  (match a.Prof.phase_blame with
  | top :: _ -> Alcotest.(check string) "top blame phase" "interior" top.Prof.key
  | [] -> Alcotest.fail "no blame rows");
  (* the halo is entirely hidden: zeroing it cannot shrink the makespan *)
  let halo =
    List.find (fun (s : Prof.sensitivity) -> s.Prof.s_key = "halo")
      a.Prof.phase_sensitivity
  in
  Alcotest.(check bool) "halo fully hidden" true (halo.Prof.shrink_s = 0.0)

let test_all_models_blame_invariant () =
  let dags =
    [
      ("sw4", (sw4_model ()).Sw4.Scenario.dag);
      ( "ddcmd-4gpu",
        (Ddcmd.Perf.ddcmd_step_model ~overlap:true Ddcmd.Perf.Four_gpu)
          .Ddcmd.Perf.dag );
      ( "kavg",
        (Dlearn.Distributed.kavg_round_model ~overlap:true ~learners:8 ~k:8
           ~batch:16 [| 12; 16; 4 |])
          .Dlearn.Distributed.dag );
    ]
  in
  List.iter
    (fun (id, dag) ->
      let a = Prof.analyze ~overlap:true dag in
      close (id ^ ": blame sums to makespan") (Prof.blame_total a) a.Prof.makespan;
      (* the critical path telescopes: its durations sum to the makespan *)
      let path_sum =
        List.fold_left (fun acc i -> acc +. dag.(i).Prof.dur) 0.0 a.Prof.critical
      in
      close (id ^ ": path telescopes") path_sum a.Prof.makespan;
      (* every critical item has zero slack *)
      List.iter
        (fun i ->
          if a.Prof.slack.(i) <> 0.0 then
            Alcotest.failf "%s: critical item %d has slack %.17g" id i
              a.Prof.slack.(i))
        a.Prof.critical)
    dags

let test_sched_profile_agrees () =
  let sched = Hwsim.Sched.create ~overlap:true () in
  let a = Hwsim.Sched.work sched ~stream:"s1" ~phase:"a" 2.0 in
  let _b = Hwsim.Sched.work sched ~stream:"s2" ~deps:[ a ] ~phase:"b" 3.0 in
  let _c = Hwsim.Sched.work sched ~stream:"s1" ~phase:"c" 1.0 in
  let makespan = Hwsim.Sched.run sched in
  let p = Hwsim.Sched.profile sched in
  close "profile makespan = Sched.run" p.Prof.makespan makespan;
  close "serial sum" p.Prof.serial_s (Hwsim.Sched.serial_sum sched)

(* --- qcheck: random DAGs --- *)

let gen_items =
  QCheck.Gen.(
    let* n = int_range 1 24 in
    let* durs = array_size (return n) (map (fun k -> float_of_int k /. 16.0) (int_range 0 64)) in
    let* streams = array_size (return n) (int_range 0 2) in
    let* phases = array_size (return n) (int_range 0 3) in
    let* dep_flags =
      array_size (return n) (pair (int_range 0 23) bool)
    in
    return
      (Array.init n (fun i ->
           let deps =
             if i > 0 && snd dep_flags.(i) then [ fst dep_flags.(i) mod i ]
             else []
           in
           {
             Prof.idx = i;
             stream = Printf.sprintf "s%d" streams.(i);
             phase = Printf.sprintf "p%d" phases.(i);
             device = "dev";
             dur = durs.(i);
             deps;
           })))

let arb_items = QCheck.make ~print:(fun items ->
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun (it : Prof.item) ->
              Printf.sprintf "%d:%s/%s/%.3f[%s]" it.Prof.idx it.Prof.stream
                it.Prof.phase it.Prof.dur
                (String.concat "," (List.map string_of_int it.Prof.deps)))
            items)))
    gen_items

let prop_blame_sums_to_makespan =
  QCheck.Test.make ~name:"per-phase blame sums to makespan" ~count:300 arb_items
    (fun items ->
      let a = Prof.analyze ~overlap:true items in
      Float.abs (Prof.blame_total a -. a.Prof.makespan)
      <= 1e-9 *. Float.max 1.0 a.Prof.makespan)

let prop_off_path_zeroing_is_noop =
  QCheck.Test.make
    ~name:"zeroing an off-critical-path item never changes the makespan"
    ~count:300 arb_items (fun items ->
      let a = Prof.analyze ~overlap:true items in
      let ok = ref true in
      Array.iteri
        (fun i _ ->
          if a.Prof.slack.(i) > 0.0 then begin
            let shrink =
              Prof.what_if_zero a items (fun it -> it.Prof.idx = i)
            in
            (* bit-exact: the makespan is a max over path sums that do
               not involve the zeroed item *)
            if shrink <> 0.0 then ok := false
          end)
        items;
      !ok)

let prop_serial_blame_is_charge_breakdown =
  QCheck.Test.make
    ~name:"overlap off: blame = serial charge breakdown, bit-identically"
    ~count:300 arb_items (fun items ->
      let a = Prof.analyze ~overlap:false items in
      (* accumulate exactly as serialized charging would: one +. per item
         in enqueue order, grouped by phase *)
      let tbl = Hashtbl.create 8 in
      Array.iter
        (fun (it : Prof.item) ->
          let prev = Option.value (Hashtbl.find_opt tbl it.Prof.phase) ~default:0.0 in
          Hashtbl.replace tbl it.Prof.phase (prev +. it.Prof.dur))
        items;
      List.for_all
        (fun (b : Prof.blame) -> Hashtbl.find tbl b.Prof.key = b.Prof.seconds)
        a.Prof.phase_blame
      && List.length a.Prof.critical = Array.length items
      && Array.for_all (fun s -> s = 0.0) a.Prof.slack)

let prop_makespan_le_serial =
  QCheck.Test.make ~name:"makespan <= serial sum; critical nonempty" ~count:300
    arb_items (fun items ->
      let a = Prof.analyze ~overlap:true items in
      a.Prof.makespan <= a.Prof.serial_s +. 1e-12
      && (a.Prof.makespan <= 0.0 || a.Prof.critical <> []))

(* --- Events --- *)

let test_events_jsonl_schema () =
  let get = Events.memory () in
  Events.reset_seq ();
  Events.emit ~t_s:1.5 ~kind:"span" ~source:"hwsim/trace"
    [ ("phase", Json.Str "interior"); ("dur_s", Json.Num 0.25) ];
  Events.emit ~kind:"metric" ~source:"harness/sw4"
    [ ("name", Json.Str "x"); ("value", Json.Num 3.0); ("up", Json.Bool true) ];
  Events.close ();
  match get () with
  | [ l1; l2 ] ->
      Alcotest.(check bool) "one line each, no trailing newline" true
        (not (String.contains l1 '\n' || String.contains l2 '\n'));
      let j1 = Json.parse_exn l1 and j2 = Json.parse_exn l2 in
      Alcotest.(check (option (float 0.0))) "int field" (Some 3.0)
        (Json.float_member "value" j2);
      Alcotest.(check (option string)) "kind" (Some "span") (Json.string_member "kind" j1);
      Alcotest.(check (option string)) "source" (Some "hwsim/trace")
        (Json.string_member "source" j1);
      (match (Json.float_member "seq" j1, Json.float_member "seq" j2) with
      | Some s1, Some s2 ->
          Alcotest.(check bool) "seq increases" true (s2 = s1 +. 1.0)
      | _ -> Alcotest.fail "missing seq");
      close "t_s" (Option.get (Json.float_member "t_s" j1)) 1.5;
      close "field" (Option.get (Json.float_member "dur_s" j1)) 0.25;
      Alcotest.(check (option bool)) "bool field" (Some true)
        (Json.member "up" j2 |> Option.map (fun v -> Json.to_bool v = Some true))
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)

let test_events_escape_and_nonfinite () =
  let get = Events.memory () in
  Events.reset_seq ();
  Events.emit ~kind:"span" ~source:"s"
    [ ("name", Json.Str "a\"b\\c\nd\x01e"); ("bad", Json.Num Float.nan) ];
  Events.close ();
  match get () with
  | [ line ] ->
      let j = Json.parse_exn line in
      Alcotest.(check (option string)) "escaped string round-trips"
        (Some "a\"b\\c\nd\x01e") (Json.string_member "name" j);
      Alcotest.(check bool) "non-finite float is null" true
        (Json.member "bad" j = Some Json.Null)
  | lines -> Alcotest.failf "expected 1 line, got %d" (List.length lines)

let test_events_disabled_noop () =
  Events.close ();
  (* no sink (ICOE_EVENTS unset in tests): emit must be a no-op *)
  Events.emit ~kind:"span" ~source:"s" [ ("k", Json.Num 1.0) ];
  Alcotest.(check bool) "disabled" false (Events.enabled ())

let test_trace_emits_span_events () =
  let get = Events.memory () in
  Events.reset_seq ();
  let clock = Hwsim.Clock.create () in
  let tr = Hwsim.Trace.create clock in
  Hwsim.Trace.charge tr ~device:"gpu" ~phase:"compute" 0.5;
  Hwsim.Trace.charge tr ~phase:"idle" 0.25;
  Events.close ();
  let lines = get () in
  Alcotest.(check int) "one event per charge" 2 (List.length lines);
  let j = Json.parse_exn (List.hd lines) in
  Alcotest.(check (option string)) "phase" (Some "compute")
    (Json.string_member "phase" j);
  Alcotest.(check (option string)) "device" (Some "gpu")
    (Json.string_member "device" j);
  close "dur" (Option.get (Json.float_member "dur_s" j)) 0.5

let test_cluster_lifecycle_events () =
  let get = Events.memory () in
  Events.reset_seq ();
  let classes =
    [|
      {
        Icoe_svc.Workload.name = "k";
        sizes = [| 1 |];
        service = (fun ~nodes:_ -> 10.0);
      };
    |]
  in
  let jobs =
    [
      { Icoe_svc.Workload.id = 0; arrival = 1.0; klass = 0; nodes = 1 };
      { Icoe_svc.Workload.id = 1; arrival = 2.0; klass = 0; nodes = 1 };
    ]
  in
  let m = Icoe_svc.Cluster.simulate ~nodes:2 ~classes Icoe_svc.Cluster.Fcfs jobs in
  Events.close ();
  Alcotest.(check int) "completed" 2 m.Icoe_svc.Cluster.completed;
  let lines = List.map Json.parse_exn (get ()) in
  let count k ev =
    List.length
      (List.filter
         (fun j ->
           Json.string_member "kind" j = Some k
           && (ev = None || Json.string_member "ev" j = ev))
         lines)
  in
  Alcotest.(check int) "submits" 2 (count "job" (Some "submit"));
  Alcotest.(check int) "dispatches" 2 (count "job" (Some "dispatch"));
  Alcotest.(check int) "finishes" 2 (count "job" (Some "finish"));
  Alcotest.(check bool) "queue samples" true (count "queue" None > 0);
  (* lifecycle bookkeeping also lands in the metrics record *)
  Alcotest.(check int) "log" 2 (List.length m.Icoe_svc.Cluster.log);
  List.iter
    (fun (r : Icoe_svc.Cluster.job_record) ->
      Alcotest.(check int) "placement width" r.Icoe_svc.Cluster.job.Icoe_svc.Workload.nodes
        (List.length r.Icoe_svc.Cluster.placed))
    m.Icoe_svc.Cluster.log

let test_occupancy_chrome_valid () =
  let classes =
    [|
      {
        Icoe_svc.Workload.name = "k";
        sizes = [| 2 |];
        service = (fun ~nodes:_ -> 5.0);
      };
    |]
  in
  let jobs =
    [
      { Icoe_svc.Workload.id = 0; arrival = 0.0; klass = 0; nodes = 2 };
      { Icoe_svc.Workload.id = 1; arrival = 0.5; klass = 0; nodes = 2 };
    ]
  in
  let m = Icoe_svc.Cluster.simulate ~nodes:2 ~classes Icoe_svc.Cluster.Fcfs jobs in
  let doc = Json.parse_exn (Icoe_svc.Cluster.occupancy_chrome_json m) in
  let events = Option.get (Json.list_member "traceEvents" doc) in
  let spans =
    List.filter (fun e -> Json.string_member "ph" e = Some "X") events
  in
  (* 2 jobs x 2 nodes each *)
  Alcotest.(check int) "job spans" 4 (List.length spans);
  Alcotest.(check bool) "counter tracks" true
    (List.exists (fun e -> Json.string_member "ph" e = Some "C") events)

(* --- Json reader --- *)

let test_json_parse_roundtrip () =
  let j =
    Json.parse_exn
      {|{"a": [1, 2.5, -3e2], "s": "xA\n", "t": true, "n": null, "o": {"k": "v"}}|}
  in
  Alcotest.(check (option (float 0.0))) "num" (Some 2.5)
    (Option.bind (Json.list_member "a" j) (fun l -> Json.to_float (List.nth l 1)));
  Alcotest.(check (option string)) "escapes" (Some "xA\n") (Json.string_member "s" j);
  Alcotest.(check bool) "null" true (Json.member "n" j = Some Json.Null);
  Alcotest.(check (option string)) "nested" (Some "v")
    (Option.bind (Json.member "o" j) (Json.string_member "k"))

let test_json_surrogate_pair () =
  (* U+1F600 as an escaped surrogate pair must decode to 4-byte UTF-8 *)
  match Json.parse_exn {|"\ud83d\ude00"|} with
  | Json.Str s -> Alcotest.(check string) "emoji utf8" "\xF0\x9F\x98\x80" s
  | _ -> Alcotest.fail "expected string"

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad "tru";
  bad "1 2";
  bad {|"unterminated|};
  bad {|{"a" 1}|};
  bad "\"raw\ttab\"";
  bad "\"raw\nnewline\"";
  bad "\"\x01\""

(* --- Bench_diff --- *)

let bench_doc ?(sim = 1.0) ?(wall = 100.0) ?(jobs_per_s = 2.0) ?(checks = [])
    () =
  Json.parse_exn
    (Printf.sprintf
       {|{"rows": [
           {"section": "harness", "name": "h/wall_ns", "value": %.17g, "unit": "ns", "class": "wall", "higher_better": false},
           {"section": "harness", "name": "h/simulated_s", "value": %.17g, "unit": "s", "class": "sim", "higher_better": false},
           {"section": "kernel", "name": "k", "value": 50.0, "unit": "ns", "class": "wall", "higher_better": false},
           {"section": "kernel", "name": "skipped", "value": null, "unit": "ns", "class": "wall", "higher_better": false},
           {"section": "service", "name": "FCFS/jobs_per_s", "value": %.17g, "unit": "jobs/s", "class": "sim", "higher_better": true},
           {"section": "service", "name": "FCFS/wait_p99_s", "value": 10.0, "unit": "s", "class": "sim", "higher_better": false}],
          "checks": [%s]}|}
       wall sim jobs_per_s
       (String.concat ", "
          (List.map
             (fun (n, ok) -> Printf.sprintf {|{"name": "%s", "ok": %b}|} n ok)
             checks)))

let test_diff_identical_ok () =
  let d = bench_doc () in
  let r = Bench_diff.diff ~base:d ~cur:d in
  Alcotest.(check int) "no regressions" 0 r.Bench_diff.regressions;
  Alcotest.(check int) "no warnings" 0 r.Bench_diff.warnings;
  Alcotest.(check int) "exit code" 0 (Bench_diff.exit_code r)

let test_diff_sim_inflation_regresses () =
  let r =
    Bench_diff.diff ~base:(bench_doc ()) ~cur:(bench_doc ~sim:1.10 ())
  in
  Alcotest.(check int) "one regression" 1 r.Bench_diff.regressions;
  Alcotest.(check int) "exit code" 3 (Bench_diff.exit_code r)

let test_diff_wall_warns_only () =
  let r =
    Bench_diff.diff ~base:(bench_doc ()) ~cur:(bench_doc ~wall:200.0 ())
  in
  Alcotest.(check int) "no regression" 0 r.Bench_diff.regressions;
  Alcotest.(check int) "one warning" 1 r.Bench_diff.warnings

let test_diff_throughput_drop_regresses () =
  (* jobs_per_s is higher-is-better: a drop is the regression *)
  let r =
    Bench_diff.diff ~base:(bench_doc ()) ~cur:(bench_doc ~jobs_per_s:1.0 ())
  in
  Alcotest.(check int) "drop regresses" 1 r.Bench_diff.regressions;
  let r' =
    Bench_diff.diff ~base:(bench_doc ()) ~cur:(bench_doc ~jobs_per_s:3.0 ())
  in
  Alcotest.(check int) "rise does not" 0 r'.Bench_diff.regressions

let test_diff_missing_sections_never_fail () =
  let small =
    Json.parse_exn
      {|{"rows": [{"section": "harness", "name": "h/simulated_s", "value": 1.0}]}|}
  in
  let r = Bench_diff.diff ~base:small ~cur:(bench_doc ()) in
  Alcotest.(check int) "added rows don't fail" 0 r.Bench_diff.regressions;
  let r' = Bench_diff.diff ~base:(bench_doc ()) ~cur:small in
  Alcotest.(check int) "removed rows don't fail" 0 r'.Bench_diff.regressions

let test_diff_small_drift_within_threshold () =
  let r =
    Bench_diff.diff ~base:(bench_doc ()) ~cur:(bench_doc ~sim:1.04 ())
  in
  Alcotest.(check int) "4% < 5% threshold" 0 r.Bench_diff.regressions;
  let r' =
    Bench_diff.diff ~base:(bench_doc ()) ~cur:(bench_doc ~sim:1.06 ())
  in
  Alcotest.(check int) "6% > 5% threshold catches" 1 r'.Bench_diff.regressions

let test_diff_false_check_regresses () =
  let ok = bench_doc ~checks:[ ("c", true) ] () in
  let bad = bench_doc ~checks:[ ("c", false) ] () in
  let r = Bench_diff.diff ~base:ok ~cur:bad in
  Alcotest.(check int) "false check regresses" 1 r.Bench_diff.regressions;
  Alcotest.(check int) "exit code" 3 (Bench_diff.exit_code r);
  let r' = Bench_diff.diff ~base:(bench_doc ()) ~cur:bad in
  Alcotest.(check int) "also when new" 1 r'.Bench_diff.regressions;
  let r'' = Bench_diff.diff ~base:(bench_doc ()) ~cur:ok in
  Alcotest.(check int) "a new passing check is fine" 0
    r''.Bench_diff.regressions

let test_diff_missing_check_regresses () =
  let r =
    Bench_diff.diff
      ~base:(bench_doc ~checks:[ ("c", true); ("d", true) ] ())
      ~cur:(bench_doc ~checks:[ ("d", true) ] ())
  in
  Alcotest.(check int) "dropped check regresses" 1 r.Bench_diff.regressions;
  Alcotest.(check (list string)) "named in the table" [ "c" ]
    (List.filter_map
       (fun (row : Bench_diff.row) ->
         if row.verdict = Bench_diff.Regression then Some row.name else None)
       r.Bench_diff.rows)

(* Fuzzed row documents: any field may be missing, null (how the writer
   prints NaN), or of the wrong type. The flattener must skip what it
   cannot read, never raise, and a document must diff clean against
   itself. Check names may be malformed too, but a named check always
   holds here: a failing one is a regression by design. *)
let gen_bench_doc =
  let open QCheck.Gen in
  let junk =
    oneofl
      [ Json.Null; Json.Bool false; Json.Num 3.0; Json.Str "x"; Json.Arr [];
        Json.Obj [] ]
  in
  let field key good =
    frequency
      [ (4, map (fun v -> [ (key, v) ]) good); (1, return []);
        (1, map (fun v -> [ (key, v) ]) junk) ]
  in
  let value =
    oneof
      [ map (fun f -> Json.Num f) (float_range (-1e6) 1e6);
        return Json.Null (* NaN *); return (Json.Num 0.0) ]
  in
  let str = map (fun s -> Json.Str s) (oneofl [ "a"; "b"; "a/b"; "" ]) in
  let row =
    map
      (fun fs -> Json.Obj (List.concat fs))
      (flatten_l
         [ field "section" str; field "name" str; field "value" value;
           field "unit" str;
           field "class" (map (fun s -> Json.Str s) (oneofl [ "sim"; "wall"; "?" ]));
           field "higher_better" (map (fun b -> Json.Bool b) bool) ])
  in
  let check =
    frequency
      [ (3, map (fun n -> Json.Obj [ ("name", Json.Str n); ("ok", Json.Bool true) ])
              (oneofl [ "c"; "d"; "c/e" ]));
        (1,
         map
           (fun v -> Json.Obj [ ("name", v); ("ok", Json.Bool false) ])
           (oneofl [ Json.Null; Json.Num 1.0; Json.Arr [] ])) ]
  in
  let section key g =
    frequency
      [ (4, map (fun l -> [ (key, Json.Arr l) ]) (list_size (0 -- 8) g));
        (1, return []); (1, map (fun v -> [ (key, v) ]) junk) ]
  in
  map
    (fun (r, c) -> Json.Obj (r @ c))
    (pair (section "rows" row) (section "checks" check))

let prop_diff_fuzz =
  QCheck.Test.make ~name:"fuzzed rows never raise, self-diff clean" ~count:300
    (QCheck.make (QCheck.Gen.pair gen_bench_doc gen_bench_doc))
    (fun (a, b) ->
      (* also through the writer and back *)
      let a' = Json.parse_exn (Json.to_string a) in
      ignore (Bench_diff.flatten b);
      ignore (Bench_diff.diff ~base:a ~cur:b);
      ignore (Bench_diff.diff ~base:b ~cur:a');
      (Bench_diff.diff ~base:a ~cur:a').Bench_diff.regressions = 0
      && (Bench_diff.diff ~base:b ~cur:b).Bench_diff.regressions = 0)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "prof"
    [
      ( "blame",
        [
          Alcotest.test_case "sw4 sums to makespan" `Quick
            test_sw4_blame_sums_to_makespan;
          Alcotest.test_case "sw4 blames stencil not halo" `Quick
            test_sw4_blames_stencil_not_halo;
          Alcotest.test_case "all models invariant" `Quick
            test_all_models_blame_invariant;
          Alcotest.test_case "Sched.profile agrees" `Quick
            test_sched_profile_agrees;
        ] );
      ( "blame-qcheck",
        qsuite
          [
            prop_blame_sums_to_makespan;
            prop_off_path_zeroing_is_noop;
            prop_serial_blame_is_charge_breakdown;
            prop_makespan_le_serial;
          ] );
      ( "events",
        [
          Alcotest.test_case "jsonl schema" `Quick test_events_jsonl_schema;
          Alcotest.test_case "escape + nonfinite" `Quick
            test_events_escape_and_nonfinite;
          Alcotest.test_case "disabled noop" `Quick test_events_disabled_noop;
          Alcotest.test_case "trace spans" `Quick test_trace_emits_span_events;
          Alcotest.test_case "cluster lifecycle" `Quick
            test_cluster_lifecycle_events;
          Alcotest.test_case "occupancy chrome" `Quick
            test_occupancy_chrome_valid;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "surrogate pair" `Quick test_json_surrogate_pair;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical ok" `Quick test_diff_identical_ok;
          Alcotest.test_case "sim inflation regresses" `Quick
            test_diff_sim_inflation_regresses;
          Alcotest.test_case "wall warns only" `Quick test_diff_wall_warns_only;
          Alcotest.test_case "throughput drop regresses" `Quick
            test_diff_throughput_drop_regresses;
          Alcotest.test_case "missing sections never fail" `Quick
            test_diff_missing_sections_never_fail;
          Alcotest.test_case "threshold" `Quick
            test_diff_small_drift_within_threshold;
          Alcotest.test_case "false check regresses" `Quick
            test_diff_false_check_regresses;
          Alcotest.test_case "missing check regresses" `Quick
            test_diff_missing_check_regresses;
        ] );
      ("diff-qcheck", qsuite [ prop_diff_fuzz ]);
    ]
