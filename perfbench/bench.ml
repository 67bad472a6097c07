(* The benchmark program: one workload per process.

     bench.exe --workload W --seed N --reference FILE [--t0-ns T]
               (--setup-only | --seconds S | --profile [--overhead]
                | --pool-probe)
     bench.exe --digests

   --setup-only  builds the workload's inputs and reports setup_s;
   --seconds S   repeats untraced passes while one more fits in S seconds
                 (at least one) and reports the end-to-end metrics
                 (median pass wall, peak heap after the first pass,
                 this process's set-up time);
   --profile     runs an untraced warm-up pass, one traced pass and the
                 workload's layer probes, and reports the per-layer
                 metrics; with --overhead it also runs one more untraced
                 pass and reports the GC work of the traced pass and the
                 tracing overhead (traced minus untraced pass);
   --pool-probe  times pool dispatch and the pooled kernels against their
                 serial oracles on the global pool, whose size comes
                 from ICOE_DOMAINS.

   T is the launcher's CLOCK_MONOTONIC reading just before it started
   this process, so setup_s covers process start-up too. The last line
   of output is one JSON object; run.py merges the processes of a run.

   --digests prints the "id digest" line of every checked harness
   report, the format of reference.txt; regenerate that file with it
   only when a report is meant to change. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload learn|engines|schedule --seed N --reference \
     FILE [--t0-ns T] (--setup-only | --seconds S | --profile [--overhead] | \
     --pool-probe)";
  exit 2

type mode =
  | Setup_only
  | Measure of float
  | Profile of { overhead : bool }
  | Pool_probe

type args = {
  workload : Workloads.t;
  seed : int;
  reference : string;
  t0 : int64;
  mode : mode;
}

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: rest
      when List.mem flag
             [ "--setup-only"; "--profile"; "--overhead"; "--pool-probe" ] ->
        go ((flag, "") :: acc) rest
    | flag :: v :: rest -> go ((flag, v) :: acc) rest
    | [ _ ] -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = List.assoc_opt k kv in
  let req k f = match Option.bind (get k) f with Some v -> v | None -> usage () in
  let mode =
    if get "--setup-only" <> None then Setup_only
    else if get "--pool-probe" <> None then Pool_probe
    else if get "--profile" <> None then
      Profile { overhead = get "--overhead" <> None }
    else Measure (req "--seconds" float_of_string_opt)
  in
  {
    workload = req "--workload" Workloads.of_name;
    seed = req "--seed" int_of_string_opt;
    reference = req "--reference" Option.some;
    t0 =
      (match Option.bind (get "--t0-ns") Int64.of_string_opt with
      | Some t -> t
      | None -> Span.now_ns ());
    mode;
  }

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~(tally : Workloads.tally) ~provenance rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"provenance\": {%s}, \
     \"metrics\": {"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) provenance));
  List.iteri
    (fun i (name, value, unit) ->
      Printf.bprintf b "%s%S: {\"value\": %s, \"unit\": %S}"
        (if i = 0 then "" else ", ")
        name (json_number value) unit)
    rows;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

let provenance args ~gc =
  [
    ("workload", Workloads.name args.workload);
    ("seed", string_of_int args.seed);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("icoe_domains", Option.value (Sys.getenv_opt "ICOE_DOMAINS") ~default:"unset");
    ("ocaml", Sys.ocaml_version);
    ("gc", Icoe_util.Gctune.describe gc);
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---- the untraced measurement ---- *)

let measure args ~tally ~seconds inputs ~setup_s =
  let start = Span.now_ns () in
  (* the heap a one-pass process peaks at: later passes may grow it a
     little more, and how many passes fit depends on the host's speed *)
  let peak_heap = ref 0.0 in
  let rec passes acc =
    let _, wall = Span.time (fun () -> Workloads.run_pass ~tally inputs) in
    if acc = [] then peak_heap := peak_heap_mb ();
    let acc = wall :: acc in
    (* start another pass only if one as long as the last still fits *)
    if Span.seconds_since start +. wall <= seconds then passes acc else acc
  in
  let walls = Array.of_list (passes []) in
  Printf.eprintf "perfbench: %s: %d passes, walls %s s\n%!"
    (Workloads.name args.workload)
    (Array.length walls)
    (String.concat " "
       (List.map (Printf.sprintf "%.3f") (List.rev (Array.to_list walls))));
  [
    ("wall_s", Icoe_util.Stats.median walls, "s");
    ("setup_s", setup_s, "s");
    ("peak_heap_mb", !peak_heap, "MB");
  ]

(* ---- the traced run ---- *)

(* Engine work counters read from the harness outcomes' registry deltas:
   (registry counter, metric name). *)
let engine_counters =
  [
    ("sw4_gridpoint_updates_total", "sw4.gridpoint_updates");
    ("md_pair_interactions_total", "ddcmd.pair_interactions");
    ("amg_vcycles_total", "hypre.amg_vcycles");
    ("krylov_iterations_total", "linalg.krylov_iterations");
    ("lda_estep_docs_total", "lda.estep_docs");
    ("bfs_edges_traversed_total", "havoq.bfs_edges");
    ("cardioid_steps_total", "cardioid.steps");
    ("cleverleaf_patch_updates_total", "samrai.patch_updates");
  ]

(* [(harness id, host seconds, registry delta)] -> per counter, its
   total and the host seconds of the harnesses that moved it. *)
let engine_rows outcomes =
  let counted name =
    List.fold_left
      (fun (total, secs) (_, wall, samples) ->
        let c =
          List.fold_left
            (fun acc (s : Icoe_obs.Metrics.sample) ->
              match s.value with
              | Icoe_obs.Metrics.Counter v when s.name = name -> acc +. v
              | _ -> acc)
            0.0 samples
        in
        if c > 0.0 then (total +. c, secs +. wall) else (total, secs))
      (0.0, 0.0) outcomes
  in
  let rows =
    List.map
      (fun (counter, metric) ->
        let total, _ = counted counter in
        (metric, total, "count"))
      engine_counters
  in
  let rate counter metric unit =
    let total, secs = counted counter in
    (metric, total /. secs, unit)
  in
  rows
  @ [
      rate "sw4_gridpoint_updates_total" "sw4.gridpoint_updates_per_s"
        "updates/s";
      rate "md_pair_interactions_total" "ddcmd.pairs_per_s" "pairs/s";
    ]

let schedule_rows (stats : Workloads.stream_stats) (streams : Workloads.streams)
    =
  let simulate layer policies =
    List.map
      (fun (p, _) ->
        let span = Printf.sprintf "%s.%s.simulate" layer p in
        (span ^ "_s", Span.seconds_of span, "s"))
      policies
  in
  let sims =
    simulate "svc" Workloads.svc_policies
    @ simulate "opt" Workloads.opt_policies
  in
  let sim_s = List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 sims in
  [
    ("svc.generate_s", Span.seconds_of "svc.generate", "s");
    ("svc.jobs", float_of_int (List.length streams.svc_jobs), "count");
    ("svc.max_queue_depth", float_of_int stats.max_queue_depth, "count");
    ("sim_jobs_per_s", float_of_int stats.sim_jobs /. sim_s, "jobs/s");
  ]
  @ sims

let profile args ~tally ~overhead inputs =
  let outcomes = ref [] in
  let on_outcome (h : Icoe.Harness.t) (o : Icoe.Harness.outcome) =
    outcomes :=
      (h.id, Span.seconds_of ("icoe." ^ h.id), o.Icoe.Harness.metrics)
      :: !outcomes
  in
  (* an untraced warm-up pass first, so the traced pass, like the
     median pass of the untraced run, starts with a grown heap *)
  ignore (Workloads.run_pass ~tally inputs);
  let stats =
    Span.record "pass" (fun () ->
        Workloads.run_pass ~wrap:{ wrap = Span.record } ~on_outcome ~tally inputs)
  in
  let harness_rows =
    List.concat_map
      (fun (h : Icoe.Harness.t) ->
        match Span.find ("icoe." ^ h.id) with
        | None -> []
        | Some s ->
            [
              ("icoe." ^ h.id ^ ".wall_s", Span.seconds s, "s");
              ("icoe." ^ h.id ^ ".minor_mw", s.gc.minor_words /. 1e6, "Mwords");
            ])
      inputs.Workloads.harnesses
  in
  let overhead_rows =
    if not overhead then []
    else begin
      let _, untraced =
        Span.time (fun () -> Workloads.run_pass ~tally inputs)
      in
      let pass = Option.get (Span.find "pass") in
      [
        ("gc.minor_gw", pass.gc.minor_words /. 1e9, "Gwords");
        ("gc.promoted_mw", pass.gc.promoted_words /. 1e6, "Mwords");
        ("gc.major_collections", float_of_int pass.gc.major_collections, "count");
        ("obs.trace_overhead_s", Span.seconds pass -. untraced, "s");
      ]
    end
  in
  let layer_rows =
    match args.workload with
    | Workloads.Learn -> Probes.dlearn ~tally ~seed:args.seed
    | Workloads.Engines -> engine_rows !outcomes
    | Workloads.Schedule -> (
        Probes.topopt ~tally @ Probes.hwsim ~tally
        @
        match (stats, inputs.Workloads.streams) with
        | Some st, Some streams -> schedule_rows st streams
        | _ -> [])
  in
  prerr_string (Span.report ());
  harness_rows @ overhead_rows @ layer_rows

let print_digests () =
  List.iter
    (fun w ->
      List.iter
        (fun id ->
          match Icoe.Harness_registry.find id with
          | Some h ->
              Printf.printf "%s %s\n%!" id
                (Workloads.report_digest (h.run ()).Icoe.Harness.report)
          | None -> Printf.eprintf "perfbench: no harness %s\n" id)
        (Workloads.harness_ids w))
    Workloads.all

let () =
  if Array.mem "--digests" Sys.argv then begin
    print_digests ();
    exit 0
  end;
  let args = parse_args () in
  let gc = Icoe_util.Gctune.apply_env () in
  let tally = Workloads.tally () in
  let setup wrap =
    Workloads.setup ~wrap args.workload ~seed:args.seed
      ~reference_file:args.reference
  in
  let rows =
    match args.mode with
    | Setup_only ->
        ignore (setup Workloads.untraced);
        [ ("setup_s", Span.seconds_since args.t0, "s") ]
    | Measure seconds ->
        let inputs = setup Workloads.untraced in
        let setup_s = Span.seconds_since args.t0 in
        measure args ~tally ~seconds inputs ~setup_s
    | Profile { overhead } ->
        profile args ~tally ~overhead (setup { wrap = Span.record })
    | Pool_probe -> Probes.par ~tally ~seed:args.seed
  in
  print_result ~tally ~provenance:(provenance args ~gc) rows
