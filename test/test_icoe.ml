(* Tests for the aggregation layer: the activity registry and the
   experiment harness registry behind the bench executable. *)

let test_registry_complete () =
  (* nine completed activities, as in Table 1 *)
  Alcotest.(check int) "nine activities" 9 (List.length Icoe.Registry.activities);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (a.Icoe.Registry.name ^ " has modules")
        true
        (a.Icoe.Registry.modules <> []))
    Icoe.Registry.activities;
  let rendered = Icoe_util.Table.render (Icoe.Registry.table1 ()) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true
        (Astring.String.is_infix ~affix:name rendered))
    [ "Cardioid"; "Cretin"; "ParaDyn"; "Seismic (SW4)" ]

let test_experiment_ids_unique () =
  let ids = Icoe.Harness_registry.ids () in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "all tables and figures covered" true
    (List.for_all (fun id -> List.mem id ids)
       [ "fig2"; "table2"; "table3"; "fig3"; "fig6"; "fig8"; "table4";
         "table5"; "fig9" ])

let test_find () =
  Alcotest.(check bool) "finds fig8" true
    (Option.is_some (Icoe.Harness_registry.find "fig8"));
  Alcotest.(check bool) "rejects nonsense" true
    (Option.is_none (Icoe.Harness_registry.find "nope"))

let test_tags () =
  (* every harness carries a kind tag and an activity tag *)
  List.iter
    (fun (h : Icoe.Harness.t) ->
      Alcotest.(check bool)
        (h.id ^ " has a kind tag")
        true
        (List.exists (fun t -> List.mem t h.tags) [ "figure"; "table"; "study" ]);
      Alcotest.(check bool)
        (h.id ^ " has an activity tag")
        true
        (List.exists
           (fun t -> Astring.String.is_prefix ~affix:"activity:" t)
           h.tags))
    Icoe.Harness_registry.all;
  (* the traced set is exactly the span-instrumented harnesses *)
  Alcotest.(check (list string)) "traced set"
    [ "fig2"; "table2"; "fig8"; "table4"; "resilience" ]
    (List.map (fun (h : Icoe.Harness.t) -> h.id) (Icoe.Harness_registry.traced ()))

let test_fast_harnesses_produce_output () =
  (* the cheap harnesses run in milliseconds; check they render *)
  List.iter
    (fun id ->
      match Icoe.Harness_registry.find id with
      | None -> Alcotest.fail ("missing " ^ id)
      | Some h ->
          let o = h.Icoe.Harness.run () in
          Alcotest.(check bool) (id ^ " nonempty") true
            (String.length o.Icoe.Harness.report > 100))
    [ "table1"; "fig3"; "fig6"; "gpudirect"; "table5" ]

let test_traced_harness_outcome () =
  (* a traced harness returns its spans in the outcome, scoped to the
     run (nothing leaks into a following untraced run) *)
  match Icoe.Harness_registry.find "table2" with
  | None -> Alcotest.fail "missing table2"
  | Some h ->
      let o = h.Icoe.Harness.run () in
      Alcotest.(check bool) "table2 recorded a trace" true
        (o.Icoe.Harness.traces <> []);
      Alcotest.(check bool) "simulated seconds > 0" true
        (Icoe.Harness.simulated_seconds o > 0.0);
      let untraced =
        match Icoe.Harness_registry.find "gpudirect" with
        | Some h -> h.Icoe.Harness.run ()
        | None -> Alcotest.fail "missing gpudirect"
      in
      Alcotest.(check int) "untraced harness has no spans" 0
        (List.length untraced.Icoe.Harness.traces)

let test_outcome_metrics_delta () =
  (* the outcome's metrics are a delta: running an engine-backed harness
     surfaces only what that run added *)
  match Icoe.Harness_registry.find "md" with
  | None -> Alcotest.fail "missing md"
  | Some h ->
      let o = h.Icoe.Harness.run () in
      Alcotest.(check bool) "md run produced metric deltas" true
        (o.Icoe.Harness.metrics <> [])

let test_outcome_metrics_deterministic () =
  (* the registry holds engine work only, no host time: two runs of the
     same harness from a clean registry record the same samples *)
  match Icoe.Harness_registry.find "cardioid" with
  | None -> Alcotest.fail "missing cardioid"
  | Some h ->
      let run () =
        Icoe_obs.Metrics.reset ();
        (h.Icoe.Harness.run ()).Icoe.Harness.metrics
      in
      let first = run () in
      Alcotest.(check bool) "cardioid run produced metric deltas" true
        (first <> []);
      Alcotest.(check bool) "same samples on a second run" true
        (first = run ())

let test_tuner_rows () =
  (* the "tuner" bench block: one exhaustive tuning per machine x kernel,
     with the structural never-worse guarantee holding on every cell *)
  let rows = Icoe.Harness_tune.bench_rows () in
  Alcotest.(check int) "3 machines x 3 kernels" 9 (List.length rows);
  List.iter
    (fun (r : Icoe.Harness_tune.row) ->
      let who = r.machine ^ "/" ^ r.kernel in
      Alcotest.(check bool) (who ^ ": tuned <= default") true
        (r.tuned_s <= r.default_s && r.tuned_s > 0.0);
      Alcotest.(check bool) (who ^ ": split in [0,1]") true
        (r.split >= 0.0 && r.split <= 1.0);
      Alcotest.(check bool) (who ^ ": speedup >= 1") true (r.speedup >= 1.0);
      Alcotest.(check string) (who ^ ": exhaustive mode") "exhaustive" r.mode)
    rows;
  (* at least one cell genuinely improves on the paper placement *)
  Alcotest.(check bool) "tuning finds a real win somewhere" true
    (List.exists
       (fun (r : Icoe.Harness_tune.row) -> r.tuned_s < r.default_s)
       rows);
  Alcotest.(check bool) "tune harness registered" true
    (Option.is_some (Icoe.Harness_registry.find "tune"))

let test_run_all_mentions_every_result () =
  let out = Icoe.Harness_registry.run_all () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in report") true
        (Astring.String.is_infix ~affix:needle out))
    [ "Fig 2"; "Table 2"; "Table 3"; "Fig 3"; "Fig 6"; "Fig 8"; "Table 4";
      "Table 5"; "Fig 9"; "Cretin"; "GROMACS"; "SW4"; "KAVG"; "GPUDirect" ]

let test_raising_harness_isolated () =
  (* a test-only registry list with a harness that raises between two
     that do not: the others keep their reports and checks, the raising
     one becomes a false <id>/ran check plus an "error" event *)
  let fine id =
    Icoe.Harness.make ~id ~description:"fine" (fun () ->
        Icoe.Harness.record_check (id ^ "/fine") true;
        id ^ " report\n")
  in
  let boom =
    Icoe.Harness.make ~id:"boom" ~description:"raises" (fun () ->
        Icoe.Harness.record_check "boom/before" true;
        failwith "deliberate")
  in
  let lines = Icoe_obs.Events.memory () in
  let outcomes =
    Fun.protect ~finally:Icoe_obs.Events.close (fun () ->
        List.map Icoe.Harness.run_isolated [ fine "a"; boom; fine "b" ])
  in
  let checks = List.concat_map (fun (o : Icoe.Harness.outcome) -> o.checks) outcomes in
  Alcotest.(check (list (pair string bool))) "checks"
    [ ("a/fine", true); ("boom/ran", false); ("b/fine", true) ]
    checks;
  let reports = List.map (fun (o : Icoe.Harness.outcome) -> o.report) outcomes in
  Alcotest.(check string) "first report" "a report\n" (List.nth reports 0);
  Alcotest.(check string) "last report" "b report\n" (List.nth reports 2);
  Alcotest.(check bool) "failure section names the exception" true
    (Astring.String.is_infix ~affix:"boom failed" (List.nth reports 1)
    && Astring.String.is_infix ~affix:"deliberate" (List.nth reports 1));
  let errors =
    List.filter
      (fun l -> Astring.String.is_infix ~affix:{|"kind":"error"|} l)
      (lines ())
  in
  Alcotest.(check int) "one error event" 1 (List.length errors);
  let e = Icoe_util.Json.parse_exn (List.hd errors) in
  Alcotest.(check (option string)) "event source" (Some "harness/boom")
    (Icoe_util.Json.string_member "source" e);
  Alcotest.(check bool) "event carries the exception text" true
    (match Icoe_util.Json.string_member "exn" e with
    | Some msg -> Astring.String.is_infix ~affix:"deliberate" msg
    | None -> false)

let () =
  Alcotest.run "icoe"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "ids unique" `Quick test_experiment_ids_unique;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "tags" `Quick test_tags;
          Alcotest.test_case "fast harnesses" `Quick test_fast_harnesses_produce_output;
          Alcotest.test_case "traced outcome" `Quick test_traced_harness_outcome;
          Alcotest.test_case "metrics delta" `Quick test_outcome_metrics_delta;
          Alcotest.test_case "metrics deterministic" `Quick
            test_outcome_metrics_deterministic;
          Alcotest.test_case "tuner rows" `Quick test_tuner_rows;
          Alcotest.test_case "raising harness isolated" `Quick
            test_raising_harness_isolated;
          Alcotest.test_case "run all" `Slow test_run_all_mentions_every_result;
        ] );
    ]
