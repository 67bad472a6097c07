(* The three benchmark workloads, their seeded inputs, one pass over
   each, and the output checks every pass makes.

   Together the workloads cover the harness registry except
   [ablations], whose report is itself a wall-clock measurement and so
   cannot be checked against a reference. *)

type t = Learn | Engines | Schedule

let all = [ Learn; Engines; Schedule ]

let name = function
  | Learn -> "learn"
  | Engines -> "engines"
  | Schedule -> "schedule"

let of_name s = List.find_opt (fun w -> name w = s) all

let harness_ids = function
  | Learn -> [ "table3"; "fig3"; "kavg" ]
  | Engines ->
      [
        "sw4"; "hypre"; "table4"; "fig8"; "fig9"; "fig2"; "md"; "cardioid";
        "table5"; "table2"; "fig6"; "cretin"; "table1"; "gpudirect";
      ]
  | Schedule -> [ "opt"; "svc"; "topo"; "tune"; "resilience" ]

(* ---- output checks: each one counts, none aborts the pass ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check tally what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(** [attempt tally what f] is [Some (f ())], or [None] after counting a
    failed check when [f] raises. *)
let attempt tally what f =
  match f () with
  | v -> Some v
  | exception e ->
      check tally (what ^ " raised " ^ Printexc.to_string e) false;
      None

(* Reference digests of every checked harness report, one "id hex" line
   each. *)
let load_reference file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ id; hex ] -> Some (id, hex)
         | _ -> None)

let report_digest report = Digest.to_hex (Digest.string report)

(* How a pass brackets each call: not at all in the untraced run, with a
   span in the traced run. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { wrap = (fun _ f -> f ()) }

(* ---- seeded streams of the schedule workload ---- *)

let svc_nodes = 256
let zipf_s = 1.1
let opt_gpus = 16

(* Sized so one pass of both streams under all eight policies takes a
   few host seconds: the Poisson stream keeps the queue short at 0.9
   load, the batch stream starts with every job queued. *)
let svc_horizon_s = 80_000.0
let batch_jobs = 2_500

let svc_policies =
  Icoe_svc.Cluster.
    [
      ("fcfs", Fcfs);
      ("easy", Easy_backfill);
      ("sjf_quota", Sjf_quota 0.5);
      ("partition", Partition 0.5);
    ]

let opt_policies =
  Opt.Scheduler.
    [
      ("fcfs", Fcfs); ("backfill", Fcfs_backfill); ("sjf", Sjf);
      ("sjf_quota", Sjf_quota 0.5);
    ]

type streams = {
  classes : Icoe_svc.Workload.job_class array;
  svc_jobs : Icoe_svc.Workload.job list;
  batch : Opt.Scheduler.job list;
}

let make_streams ~wrap ~seed =
  let machine = Icoe_svc.Catalog.machine ~nodes:svc_nodes () in
  let classes = Icoe_svc.Catalog.default machine in
  let cap = Icoe_svc.Workload.capacity ~classes ~zipf_s ~nodes:svc_nodes in
  let rng = Icoe_util.Rng.create seed in
  let svc_jobs =
    wrap.wrap "svc.generate" (fun () ->
        Icoe_svc.Workload.generate ~rng:(Icoe_util.Rng.split rng) ~classes
          ~zipf_s
          ~arrivals:(Icoe_svc.Workload.Poisson (0.9 *. cap))
          ~horizon:svc_horizon_s ())
  in
  let batch =
    Opt.Scheduler.batch_workload ~rng:(Icoe_util.Rng.split rng) ~n:batch_jobs
      ()
  in
  { classes; svc_jobs; batch }

(* What the seeded streams must satisfy under every policy: each job
   completes or is rejected as too wide, utilization is in (0, 1], and
   the wait distribution is ordered. *)
let check_schedule tally what ~submitted ~too_wide ~completed ~utilization
    ~wait_p50 ~wait_p99 =
  check tally (what ^ ": every job completes or is too wide")
    (completed + too_wide = submitted);
  check tally (what ^ ": utilization in (0, 1]")
    (utilization > 0.0 && utilization <= 1.0);
  check tally (what ^ ": wait p99 >= p50") (wait_p99 >= wait_p50)

type stream_stats = { sim_jobs : int; max_queue_depth : int }

let run_streams ~tally ~wrap s =
  let sim_jobs = ref 0 and max_depth = ref 0 in
  let svc_too_wide =
    List.length
      (List.filter
         (fun (j : Icoe_svc.Workload.job) -> j.nodes > svc_nodes)
         s.svc_jobs)
  in
  List.iter
    (fun (pname, pol) ->
      let what = "svc." ^ pname in
      match
        attempt tally what (fun () ->
            wrap.wrap (what ^ ".simulate") (fun () ->
                Icoe_svc.Cluster.simulate ~nodes:svc_nodes ~classes:s.classes
                  pol s.svc_jobs))
      with
      | None -> ()
      | Some m ->
          sim_jobs := !sim_jobs + m.Icoe_svc.Cluster.submitted;
          List.iter
            (fun (_, depth, _) -> max_depth := max !max_depth depth)
            m.Icoe_svc.Cluster.samples;
          check_schedule tally what ~submitted:m.Icoe_svc.Cluster.submitted
            ~too_wide:svc_too_wide ~completed:m.Icoe_svc.Cluster.completed
            ~utilization:m.Icoe_svc.Cluster.utilization
            ~wait_p50:m.Icoe_svc.Cluster.wait_p50
            ~wait_p99:m.Icoe_svc.Cluster.wait_p99)
    svc_policies;
  let n_batch = List.length s.batch in
  let opt_too_wide =
    List.length
      (List.filter (fun (j : Opt.Scheduler.job) -> j.gpus > opt_gpus) s.batch)
  in
  List.iter
    (fun (pname, pol) ->
      let what = "opt." ^ pname in
      match
        attempt tally what (fun () ->
            wrap.wrap (what ^ ".simulate") (fun () ->
                Opt.Scheduler.simulate_schedule ~gpus:opt_gpus pol s.batch))
      with
      | None -> ()
      | Some (m, schedule) ->
          sim_jobs := !sim_jobs + n_batch;
          (* every batch job arrives at t = 0, so its wait is its start *)
          let waits =
            Array.of_list (List.map (fun (_, start, _) -> start) schedule)
          in
          check_schedule tally what ~submitted:n_batch ~too_wide:opt_too_wide
            ~completed:m.Opt.Scheduler.completed
            ~utilization:m.Opt.Scheduler.utilization
            ~wait_p50:(Icoe_util.Stats.percentile waits 0.5)
            ~wait_p99:(Icoe_util.Stats.percentile waits 0.99))
    opt_policies;
  { sim_jobs = !sim_jobs; max_queue_depth = !max_depth }

(* ---- set-up and one pass ---- *)

type inputs = {
  workload : t;
  harnesses : Icoe.Harness.t list;
  streams : streams option;
  reference : (string * string) list;
}

(** Everything a pass needs, built before the first timed call: the
    harness list, the reference digests, the schedule workload's seeded
    streams and, for [engines], the shared domain pool. [wrap] brackets
    the stream generation (a span in the traced run). *)
let setup ?(wrap = untraced) w ~seed ~reference_file =
  let ids = harness_ids w in
  let harnesses =
    List.filter
      (fun (h : Icoe.Harness.t) -> List.mem h.id ids)
      Icoe.Harness_registry.all
  in
  let streams =
    match w with Schedule -> Some (make_streams ~wrap ~seed) | _ -> None
  in
  if w = Engines then ignore (Icoe_par.Pool.get ());
  { workload = w; harnesses; streams; reference = load_reference reference_file }

(** One pass: every harness of the workload in registry order, then the
    schedule workload's streams. [wrap] brackets each call (a span in
    the traced run); [on_outcome] sees each harness outcome. *)
let run_pass ?(wrap = untraced) ?(on_outcome = fun _ _ -> ()) ~tally
    inputs =
  check tally
    ("all harnesses of " ^ name inputs.workload ^ " registered")
    (List.length inputs.harnesses = List.length (harness_ids inputs.workload));
  List.iter
    (fun (h : Icoe.Harness.t) ->
      match attempt tally h.id (fun () -> wrap.wrap ("icoe." ^ h.id) h.run) with
      | None -> ()
      | Some o ->
          check tally (h.id ^ " report matches its reference digest")
            (List.assoc_opt h.id inputs.reference
            = Some (report_digest o.Icoe.Harness.report));
          on_outcome h o)
    inputs.harnesses;
  Option.map (run_streams ~tally ~wrap) inputs.streams
