(* icoe_report: run any of the paper's reproduced experiments by id.

   Usage:
     dune exec bin/icoe_report.exe -- list
     dune exec bin/icoe_report.exe -- run fig8 table4
     dune exec bin/icoe_report.exe -- run all
     dune exec bin/icoe_report.exe -- run tune       # work-split auto-tuner
     dune exec bin/icoe_report.exe -- --trace /tmp/t.json
     dune exec bin/icoe_report.exe -- --diff BASE.json CUR.json

   Experiments are Icoe.Harness values resolved through
   Icoe.Harness_registry; each run returns a structured outcome carrying
   the rendered report, the span traces it recorded, and its engine
   metrics delta. Requested ids are validated and de-duplicated up
   front: an unknown id fails before any experiment runs, and 'all'
   expands to the full registry (combining with other ids, duplicates
   dropped).

   Instrumented experiments (tag "traced": fig2, table2, fig8, table4)
   record span traces of the simulated machine; after a run the report
   appends per-device/per-phase rollup tables, and --trace FILE exports
   the spans as Chrome trace-event JSON for chrome://tracing /
   Perfetto.

   Harnesses also record named acceptance checks (e.g. "recovered state
   identical to the fault-free run"). A run prints a one-line check
   summary on stderr and exits 1 when any check failed; a harness that
   raises counts as the failed check <id>/ran, and the other requested
   experiments still run. *)

open Cmdliner

let list_cmd =
  let doc = "List the reproducible tables and figures." in
  let run () =
    Fmt.pr "%-10s %-34s %s@." "id" "description" "tags";
    Fmt.pr "%s@." (String.make 72 '-');
    List.iter
      (fun (h : Icoe.Harness.t) ->
        Fmt.pr "%-10s %-34s %s@." h.id h.description
          (String.concat "," h.tags))
      Icoe.Harness_registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let trace_arg =
  let doc =
    "Write the collected span traces to $(docv) as Chrome trace-event \
     JSON (open in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a JSON snapshot of the engine metrics registry (counters, \
     gauges, histograms accumulated during the run) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let faults_arg =
  let doc =
    "Run under a seeded fault plan. Resilience-aware experiments (sw4, \
     cardioid, resilience) derive a deterministic fault schedule from \
     $(docv) and report injected failures, recoveries and \
     time-to-solution inflation; everything is simulated time, so the \
     output is bit-identical across repeats and ICOE_DOMAINS settings."
  in
  Arg.(value & opt (some int) None & info [ "faults" ] ~docv:"SEED" ~doc)

let events_arg =
  let doc =
    "Write the unified structured event log (JSONL flight recorder: one \
     JSON object per line over trace spans, metric deltas, fault \
     injections and service-job lifecycle) to $(docv). Equivalent to \
     setting ICOE_EVENTS=$(docv)."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let occupancy_arg =
  let doc =
    "Write the cluster-occupancy Chrome trace recorded by the svc \
     experiment (nodes as processes, jobs as spans, queue-depth and \
     free-node counter tracks) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "occupancy" ] ~docv:"FILE" ~doc)

let write_file file contents =
  match open_out file with
  | oc ->
      output_string oc contents;
      close_out oc
  | exception Sys_error msg ->
      Fmt.epr "cannot write %s: %s@." file msg;
      exit 1

let export_trace file traces =
  match traces with
  | [] ->
      Fmt.epr
        "trace: no spans were collected (none of the requested experiments \
         is instrumented); skipping write of %s@."
        file
  | traces ->
      write_file file (Hwsim.Trace.chrome_json_of_many traces);
      let spans =
        List.fold_left (fun n (_, t) -> n + Hwsim.Trace.span_count t) 0 traces
      in
      Fmt.pr "trace: wrote %d spans from %d experiment run(s) to %s@." spans
        (List.length traces) file

(* Expand 'all', reject unknown ids (all of them at once, before any
   experiment runs), and drop duplicates keeping the first occurrence. *)
let resolve_ids ids =
  let requested =
    if ids = [] then
      List.map (fun (h : Icoe.Harness.t) -> h.id) (Icoe.Harness_registry.traced ())
    else ids
  in
  let expanded =
    List.concat_map
      (fun id -> if id = "all" then Icoe.Harness_registry.ids () else [ id ])
      requested
  in
  (match
     List.filter
       (fun id -> Option.is_none (Icoe.Harness_registry.find id))
       expanded
   with
  | [] -> ()
  | unknown ->
      Fmt.epr "unknown experiment%s %s; try 'list'@."
        (if List.length unknown = 1 then "" else "s")
        (String.concat ", "
           (List.map (Fmt.str "%S") (List.sort_uniq String.compare unknown)));
      exit 1);
  let seen = Hashtbl.create 19 in
  List.filter
    (fun id ->
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.add seen id ();
        true
      end)
    expanded

let run_ids ids trace_file metrics_file faults_seed events_file occupancy_file =
  let with_faults body =
    match faults_seed with
    | None -> body ()
    | Some seed -> Icoe_fault.Context.with_spec (Icoe_fault.Plan.spec seed) body
  in
  with_faults @@ fun () ->
  let ids = resolve_ids ids in
  (* start each invocation from a clean registry so the snapshot reflects
     exactly the requested experiments *)
  Icoe_obs.Metrics.reset ();
  (* each report is printed as soon as its harness returns, and the event
     sink is closed however the run ends. A raising harness does not stop
     the run: it reports the exception, records a false <id>/ran check
     (so the exit status is 1) and the remaining ids still run *)
  let run id =
    let o =
      Icoe.Harness.run_isolated (Option.get (Icoe.Harness_registry.find id))
    in
    print_string o.report;
    flush stdout;
    o
  in
  let outcomes =
    match events_file with
    | None -> List.map run ids
    | Some file ->
        Icoe_obs.Events.to_file file;
        Fun.protect ~finally:Icoe_obs.Events.close (fun () -> List.map run ids)
  in
  let traces =
    List.concat_map (fun (o : Icoe.Harness.outcome) -> o.traces) outcomes
  in
  print_string (Icoe.Harness.rollup_report traces);
  if List.exists Icoe_obs.Metrics.moved (Icoe_obs.Metrics.snapshot ()) then
    print_string
      (Icoe_util.Table.render
         (Icoe_obs.Metrics.render_table ~title:"Engine metrics" ()));
  (match trace_file with None -> () | Some file -> export_trace file traces);
  (match metrics_file with
  | None -> ()
  | Some file ->
      write_file file (Icoe_obs.Metrics.to_json ());
      Fmt.pr "metrics: wrote %d samples to %s@."
        (List.length (Icoe_obs.Metrics.snapshot ()))
        file);
  (match occupancy_file with
  | None -> ()
  | Some file -> (
      let artifacts =
        List.concat_map (fun (o : Icoe.Harness.outcome) -> o.artifacts) outcomes
      in
      match List.assoc_opt "svc-occupancy" artifacts with
      | Some render ->
          write_file file (render ());
          Fmt.pr "occupancy: wrote cluster-occupancy Chrome trace to %s@." file
      | None ->
          Fmt.epr
            "occupancy: no occupancy artifact was recorded (run the 'svc' \
             experiment); skipping write of %s@."
            file));
  (match events_file with
  | None -> ()
  | Some file -> Fmt.pr "events: wrote event log to %s@." file);
  (* the acceptance checks the harnesses recorded: summarized on stderr
     so the report on stdout stays byte-identical, and any failure is
     the exit status *)
  let checks =
    List.concat_map (fun (o : Icoe.Harness.outcome) -> o.checks) outcomes
  in
  let failed = List.filter_map (fun (n, ok) -> if ok then None else Some n) checks in
  if checks <> [] then
    Fmt.epr "checks: %d of %d hold%s@."
      (List.length checks - List.length failed)
      (List.length checks)
      (if failed = [] then "" else "; failed: " ^ String.concat ", " failed);
  if failed <> [] then exit 1

let run_cmd =
  let doc =
    "Run experiments by id ('all' for everything; defaults to the \
     trace-instrumented set)."
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_ids $ ids $ trace_arg $ metrics_arg $ faults_arg $ events_arg
      $ occupancy_arg)

(* --- the differential regression gate ---

   `icoe_report --diff A.json B.json` can't be a cmdliner term on the
   group: Cmd.group parses the first top-level positional as a
   subcommand name. The gate is a distinct mode anyway (no experiments
   run), so it is dispatched by hand before Cmd.eval. *)

let diff_usage () =
  Fmt.epr
    "usage: icoe_report --diff BASELINE.json CURRENT.json [--all-rows]@.";
  exit 2

let run_diff args =
  let all = ref false
  and files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--all-rows" :: rest ->
        all := true;
        parse rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        files := f :: !files;
        parse rest
    | _ -> diff_usage ()
  in
  parse args;
  match List.rev !files with
  | [ base; cur ] -> (
      match
        Icoe_obs.Bench_diff.run_files ~all:!all ~base ~cur ()
      with
      | result, report ->
          print_string report;
          exit (Icoe_obs.Bench_diff.exit_code result)
      | exception Failure msg ->
          Fmt.epr "diff: %s@." msg;
          exit 2
      | exception Sys_error msg ->
          Fmt.epr "diff: %s@." msg;
          exit 2)
  | _ -> diff_usage ()

let () =
  (match Array.to_list Sys.argv with
  | _ :: "--diff" :: rest -> run_diff rest
  | _ -> ());
  let doc = "Reproduced experiments from the SC'19 iCoE paper" in
  let info = Cmd.info "icoe_report" ~version:"1.0" ~doc in
  let default =
    Term.(
      const (fun tf mf fs ef oc -> run_ids [] tf mf fs ef oc)
      $ trace_arg $ metrics_arg $ faults_arg $ events_arg $ occupancy_arg)
  in
  exit (Cmd.eval (Cmd.group ~default info [ list_cmd; run_cmd ]))
